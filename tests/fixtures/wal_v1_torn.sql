-- Appended to the format-1 fixture after wal_v1.sql, then torn: the last
-- 4 bytes of wal.log were cut, so this transaction's COMMIT marker never
-- reached the log and none of it may recover.

BEGIN;
INSERT INTO works VALUES ('Ghost', 'NS', 1, 5);
DELETE FROM assign WHERE mach = 'M1';
COMMIT;
