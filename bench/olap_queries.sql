-- The analyst corpus of the `olap` workload.  `{name}` placeholders are
-- filled from the generated table (band edges, one existing key), so the
-- same file serves every seed.  Each query has a numpy reference of the
-- same name in bench/workloads/olap.py.

-- name: q_scan_agg
SELECT COUNT(*) AS n, SUM(qty) AS q, AVG(price) AS p, MIN(disc) AS lo, MAX(disc) AS hi
FROM fact;

-- name: q_filter_agg
SELECT COUNT(*) AS n, SUM(price * (1 - disc)) AS rev
FROM fact WHERE qty > 25 AND disc < 0.1;

-- name: q_prune
SELECT COUNT(*) AS n, SUM(price) AS s
FROM fact WHERE ts BETWEEN {band1_lo} AND {band1_hi};

-- name: q_group_low
SELECT status, COUNT(*) AS n, SUM(price) AS s
FROM fact GROUP BY status ORDER BY status;

-- name: q_group_mid
SELECT g, COUNT(*) AS n, AVG(price) AS p
FROM fact GROUP BY g ORDER BY g;

-- name: q_group_high
SELECT cust, COUNT(*) AS n, SUM(qty) AS q
FROM fact WHERE ts BETWEEN {band10_lo} AND {band10_hi}
GROUP BY cust ORDER BY cust;

-- name: q_topk
SELECT k, price FROM fact WHERE qty > 40 ORDER BY price DESC, k LIMIT 10;

-- name: q_join
SELECT d.region, COUNT(*) AS n, SUM(f.price) AS s
FROM fact f JOIN dim d ON f.cust = d.cust
GROUP BY d.region ORDER BY d.region;

-- name: q_distinct
SELECT COUNT(DISTINCT cust) AS n FROM fact WHERE qty < 10;

-- name: q_point
SELECT k, ts, qty, price FROM fact WHERE k = {point_key};
