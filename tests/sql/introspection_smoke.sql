-- CI introspection smoke, first leg (run with --db DIR --slow-ms 0):
-- exercise statement statistics, the slow-query log, and the profiler,
-- then exit (= kill) so the restart leg can verify that data survives
-- while the in-memory statistics do not.
CREATE TABLE intro_ci (x INT, ts INT, te INT) PERIOD (ts, te);
INSERT INTO intro_ci VALUES (1, 0, 5), (2, 3, 9);
.profile on
SEQ VT (SELECT count(*) AS c FROM intro_ci);
SEQ VT (SELECT count(*) AS c FROM intro_ci);
.profile
SELECT fingerprint, calls, total_time_ms FROM snapshot_stat_statements ORDER BY total_time_ms DESC;
SELECT statement, total_ms, execute_ms FROM snapshot_stat_slow_queries ORDER BY total_ms DESC;
.profile /tmp/intro.folded
