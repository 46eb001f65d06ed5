package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestCatalogSnapshotRace runs readers against concurrent writers. Every
// statement must read one catalog version: the self LEFT JOIN on the unique
// key k resolves both sides from it, so no row of a can miss its own row in
// b. Under -race it also catches any read of a table while a write grows it
// (new strings intern into the dictionary, NULLs grow the validity bitmap).
func TestCatalogSnapshotRace(t *testing.T) {
	db := NewDB(WithParallelism(2), WithMorselSize(64))
	q(t, db, `CREATE TABLE t (k BIGINT, s VARCHAR, x DOUBLE)`)
	for k := 0; k < 300; k++ {
		q(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 's%d', %d)`, k, k%5, k))
	}

	const writes = 300
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < writes; i++ {
			k := 300 + i
			sql := fmt.Sprintf(`INSERT INTO t VALUES (%d, 'new%d', NULL)`, k, k)
			if i%3 == 0 {
				sql = fmt.Sprintf(`INSERT INTO t VALUES (%d, NULL, %d)`, k, k)
			}
			if i%50 == 49 {
				sql = fmt.Sprintf(`DELETE FROM t WHERE k < %d`, k-200)
			}
			if _, err := db.Query(sql); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	reads := []string{
		`SELECT a.s AS s, count(*) AS n, sum(b.x) AS sx FROM t a JOIN t b ON a.k = b.k WHERE a.x > 10 GROUP BY a.s`,
		`SELECT s, count(*) AS n FROM t WHERE s <> 'zzz' GROUP BY s`,
		`EXPLAIN ANALYZE SELECT s, max(x) AS m FROM t WHERE k > 5 GROUP BY s`,
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				res, err := db.Query(`SELECT count(*) AS n, count(b.k) AS m FROM t a LEFT JOIN t b ON a.k = b.k`)
				if err != nil {
					t.Error(err)
					return
				}
				if n, m := res.Col(0).Int64s()[0], res.Col(1).Int64s()[0]; n != m {
					t.Errorf("self LEFT JOIN left %d of %d rows unmatched: the sides read different versions", n-m, n)
					return
				}
				if _, err := db.Query(reads[(i+r)%len(reads)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestJoinOverMergeRejected: a merge table is a relation only as the whole
// FROM of a join-free statement. Naming it on either side of a JOIN fails
// with one error, executed or explained.
func TestJoinOverMergeRejected(t *testing.T) {
	master, _, _ := buildFederation(t, 2)
	q(t, master, `CREATE TABLE local (hospital VARCHAR, n BIGINT)`)
	for _, sql := range []string{
		`SELECT count(*) AS n FROM data d JOIN local l ON d.hospital = l.hospital`,
		`SELECT count(*) AS n FROM local l JOIN data d ON d.hospital = l.hospital`,
		`EXPLAIN SELECT count(*) AS n FROM data d JOIN local l ON d.hospital = l.hospital`,
		`EXPLAIN ANALYZE SELECT count(*) AS n FROM local l JOIN data d ON d.hospital = l.hospital`,
	} {
		_, err := master.Query(sql)
		if err == nil || err.Error() != "engine: JOIN over merge tables is not supported" {
			t.Errorf("%s: err = %v", sql, err)
		}
	}
}

// TestSnapshotReadsPinnedVersion: statements through a Snapshot resolve
// every relation from the version it pinned, across INSERT, DELETE, Append
// and DROP; each one still counts as a statement; a write through it is
// refused and publishes nothing.
func TestSnapshotReadsPinnedVersion(t *testing.T) {
	db := NewDB()
	q(t, db, `CREATE TABLE t (k BIGINT)`)
	q(t, db, `INSERT INTO t VALUES (1), (2), (3)`)
	snap := db.Snapshot()
	q(t, db, `INSERT INTO t VALUES (4)`)
	q(t, db, `DELETE FROM t WHERE k = 1`)
	more := NewTable(Schema{{Name: "k", Type: Int64}})
	if err := more.AppendRow(int64(5)); err != nil {
		t.Fatal(err)
	}
	if err := db.Append("t", more); err != nil {
		t.Fatal(err)
	}
	count := func(query func(string) (*Table, error)) float64 {
		t.Helper()
		res, err := query(`SELECT count(*) AS n, sum(a.k) AS s FROM t a JOIN t b ON a.k = b.k`)
		if err != nil {
			t.Fatal(err)
		}
		return res.Col(1).CastFloat64().Float64s()[0]
	}
	at := func(sql string) (*Table, error) {
		res, _, err := snap.QueryWithStatsCtx(context.Background(), sql)
		return res, err
	}
	before := db.QueryCount()
	if got := count(at); got != 1+2+3 {
		t.Errorf("snapshot read sum %v, want 6 at the pin", got)
	}
	if got := db.QueryCount() - before; got != 1 {
		t.Errorf("a snapshot statement counted %d times, want 1", got)
	}
	if got := count(db.Query); got != 2+3+4+5 {
		t.Errorf("DB read sum %v, want 14 at the current version", got)
	}
	q(t, db, `DROP TABLE t`)
	if got := count(at); got != 6 {
		t.Errorf("snapshot read sum %v after DROP, want 6", got)
	}
	ver := db.DataVersion()
	if _, err := at(`CREATE TABLE u (k BIGINT)`); err == nil {
		t.Error("a snapshot ran DDL")
	}
	if db.DataVersion() != ver || db.Table("u") != nil {
		t.Error("a refused snapshot write published a version")
	}
}
