-- The committed history of the format-1 fixture in wal_v1/ (see
-- README.md): a build that wrote the `SNAPWAL\x01` log ran this script
-- with `snapshot_db --db wal_v1 --checkpoint-every 0`. Opening wal_v1/
-- must recover exactly the state of this script run in memory.

CREATE TABLE works (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te);
INSERT INTO works VALUES ('Ann', 'SP', 3, 10), ('Joe', 'NS', 8, 16);
INSERT INTO works VALUES ('Sam', 'SP', 8, 16);

.checkpoint

UPDATE works SET skill = 'WE' WHERE name = 'Sam';
CREATE TABLE assign (mach TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te);
INSERT INTO assign VALUES ('M1', 'SP', 3, 12), ('M2', 'NS', 6, 14);

BEGIN;
INSERT INTO works VALUES ('Eve', 'SP', 0, 2);
DELETE FROM works WHERE name = 'Joe';
COMMIT;
