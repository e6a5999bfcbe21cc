-- Network smoke, second leg (run by CI after smoke.sql): one statement
-- whose result does not fit one RowBatch. Every result in smoke.sql is a
-- handful of rows, so without this no batch boundary — where integer
-- deltas restart and string and NULL runs break — ever crosses a real
-- socket in CI. The job runs this script through `snapshot_db --connect`
-- and in process and diffs the printed tables: 1 430 rows, six batches,
-- with NULLs, doubles and repeated names on both sides of each boundary.

CREATE TABLE mb_emp (name TEXT, dept TEXT, pay DOUBLE, ts INT, te INT) PERIOD (ts, te);

INSERT INTO mb_emp VALUES
  ('emp00', 'D0', NULL, 0, 20),
  ('emp00', 'D1', NULL, 1, 21),
  ('emp00', 'D2', 1002.25, 2, 22),
  ('emp01', 'D3', 1003.25, 3, 23),
  ('emp01', 'D0', 1004.25, 4, 24),
  ('emp01', 'D1', NULL, 5, 25),
  ('emp02', 'D2', NULL, 6, 26),
  ('emp02', 'D3', 1007.25, 7, 27),
  ('emp02', 'D0', 1008.25, 8, 28),
  ('emp03', 'D1', 1009.25, 0, 20),
  ('emp03', 'D2', NULL, 1, 21),
  ('emp03', 'D3', NULL, 2, 22),
  ('emp04', 'D0', 1012.25, 3, 23),
  ('emp04', 'D1', 1013.25, 4, 24),
  ('emp04', 'D2', 1014.25, 5, 25),
  ('emp05', 'D3', NULL, 6, 26),
  ('emp05', 'D0', NULL, 7, 27),
  ('emp05', 'D1', 1017.25, 8, 28),
  ('emp06', 'D2', 1018.25, 0, 20),
  ('emp06', 'D3', 1019.25, 1, 21),
  ('emp06', 'D0', NULL, 2, 22),
  ('emp07', 'D1', NULL, 3, 23),
  ('emp07', 'D2', 1022.25, 4, 24),
  ('emp07', 'D3', 1023.25, 5, 25),
  ('emp08', 'D0', 1024.25, 6, 26),
  ('emp08', 'D1', NULL, 7, 27),
  ('emp08', 'D2', NULL, 8, 28),
  ('emp09', 'D3', 1027.25, 0, 20),
  ('emp09', 'D0', 1028.25, 1, 21),
  ('emp09', 'D1', 1029.25, 2, 22),
  ('emp10', 'D2', NULL, 3, 23),
  ('emp10', 'D3', NULL, 4, 24),
  ('emp10', 'D0', 1032.25, 5, 25),
  ('emp11', 'D1', 1033.25, 6, 26),
  ('emp11', 'D2', 1034.25, 7, 27),
  ('emp11', 'D3', NULL, 8, 28);

SEQ VT (SELECT a.name, a.pay, b.name AS peer, b.dept FROM mb_emp a JOIN mb_emp b ON a.name <> b.name OR a.dept <> b.dept);

DROP TABLE mb_emp;
