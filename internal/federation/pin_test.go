package federation

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mip/internal/engine"
	"mip/internal/smpc"
)

// appendRows grows a worker's data table by n rows of dataset ds through
// DB.Append, the one way a loader writes.
func appendRows(t testing.TB, db *engine.DB, ds string, n int) {
	rows := engine.NewTable(db.Table(DataTable).Schema())
	for i := 0; i < n; i++ {
		if err := rows.AppendRow(ds, 90.0, 1.0); err != nil {
			t.Error(err)
			return
		}
	}
	if err := db.Append(DataTable, rows); err != nil {
		t.Error(err)
	}
}

// pinIDs lists the sessions a worker holds pins for, sorted.
func pinIDs(w *Worker) []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := []string{}
	for id := range w.pins {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// restartable is a worker handle whose process can be replaced between
// rounds: the transport (the worker itself, or an HTTP client to a server
// that serves whichever process is current) reaches cur.
type restartable struct {
	WorkerClient
	cur atomic.Pointer[Worker]
}

func newRestartable(t *testing.T, w *Worker, overHTTP bool) *restartable {
	r := &restartable{WorkerClient: w}
	r.cur.Store(w)
	if overHTTP {
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			(&WorkerServer{Worker: r.cur.Load()}).Handler().ServeHTTP(rw, req)
		}))
		t.Cleanup(srv.Close)
		r.WorkerClient = NewHTTPWorkerClient(w.ID(), srv.URL)
	}
	return r
}

func (r *restartable) LocalRun(req LocalRunRequest) (LocalRunResponse, error) {
	if _, inProc := r.WorkerClient.(*Worker); inProc {
		return r.cur.Load().LocalRun(req)
	}
	return r.WorkerClient.LocalRun(req)
}

// TestJobIDsUniqueAcrossMasters: two masters (or one restarted) share a
// long-lived worker, whose JobID dedupe answers a replayed job with the
// recorded response. Each master's job ids must therefore be its own: the
// second master's first step over mmse must not be answered with the first
// master's sums over age.
func TestJobIDsUniqueAcrossMasters(t *testing.T) {
	db := newWorkerDB(t, "edsd", 40, 0)
	w := NewWorker("shared", db)
	var ids [2]string
	var sums [2]float64
	for i, v := range []string{"age", "mmse"} {
		m, err := NewMaster([]WorkerClient{w}, nil, Security{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		s, err := m.NewSession(nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = s.ID()
		out, err := s.Aggregate(LocalRunSpec{Func: "test_sums", Vars: []string{v}})
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = out["sums"].Data[0]
	}
	if ids[0] == ids[1] {
		t.Errorf("two masters minted the same session id %q", ids[0])
	}
	want, err := db.Query("SELECT sum(mmse) AS s FROM data WHERE mmse IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	if got, w := sums[1], want.Col(0).Float64s()[0]; got != w {
		t.Errorf("second master's sum(mmse) = %v, want %v (sum(age) was %v): it got the other master's cached step", got, w, sums[0])
	}
}

// TestSessionReadsOnePinnedVersion: after a write between rounds, a
// session's rounds — over the data query it already read and over a new
// one — all read the catalog version its first step pinned on each worker,
// while a fresh session sees the write.
func TestSessionReadsOnePinnedVersion(t *testing.T) {
	for _, overHTTP := range []bool{false, true} {
		t.Run(fmt.Sprintf("http=%v", overHTTP), func(t *testing.T) {
			var workers []*Worker
			var clients []WorkerClient
			for i := 0; i < 2; i++ {
				w := NewWorker(fmt.Sprintf("v%d", i), newWorkerDB(t, "edsd", 40+10*i, float64(i)))
				workers = append(workers, w)
				clients = append(clients, newRestartable(t, w, overHTTP))
			}
			m, err := NewMaster(clients, nil, Security{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(m.Close)
			n := func(s *Session, vars ...string) float64 {
				t.Helper()
				out, err := s.Aggregate(LocalRunSpec{Func: "test_sums", Vars: vars})
				if err != nil {
					t.Fatal(err)
				}
				v, _ := out.Float("n")
				return v
			}
			s, _ := m.NewSession(nil)
			age0, both0 := n(s, "age"), 0.0
			fresh, _ := m.NewSession(nil)
			both0 = n(fresh, "age", "mmse")
			fresh.Close()

			appendRows(t, workers[0].DB(), "edsd", 25)
			if got := n(s, "age"); got != age0 {
				t.Errorf("round 2 read %v rows, want the pinned %v", got, age0)
			}
			if got := n(s, "age", "mmse"); got != both0 {
				t.Errorf("a new data query read %v rows, want %v at the pin", got, both0)
			}
			s.Close()
			after, _ := m.NewSession(nil)
			defer after.Close()
			if got := n(after, "age"); got != age0+25 {
				t.Errorf("a fresh session read %v rows, want %v: it must see the write", got, age0+25)
			}
		})
	}
}

// TestPinsReleasedAfterClose: a closed session's pins ride out on the next
// step the master sends each worker, so after Close and one more request
// only the live session's pins remain. A closed session runs no more steps.
func TestPinsReleasedAfterClose(t *testing.T) {
	m, workers := buildFed(t, false)
	t.Cleanup(m.Close)
	var closed []*Session
	for i := 0; i < 3; i++ {
		s, _ := m.NewSession(nil)
		for k := 0; k < 2; k++ {
			if _, err := s.LocalRun(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}}); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		closed = append(closed, s)
	}
	if _, err := closed[0].LocalRun(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}}); err == nil {
		t.Error("a closed session ran a step")
	}
	live, _ := m.NewSession(nil)
	if _, err := live.LocalRun(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}}); err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		if got := pinIDs(w); !reflect.DeepEqual(got, []string{live.ID()}) {
			t.Errorf("worker %s holds pins %v after Close and one more request, want only %s", w.ID(), got, live.ID())
		}
	}
}

// TestPinLostFailsLoudly: a round for a pin the worker no longer holds —
// evicted by the LRU bound, or gone with a worker restart — fails with a
// PinLostError naming the session and runs no statement against the
// current catalog. A plain session with a degraded quorum drops that
// worker; a secure step fails.
func TestPinLostFailsLoudly(t *testing.T) {
	sums := LocalRunSpec{Func: "test_sums", Vars: []string{"age"}}
	t.Run("evicted", func(t *testing.T) {
		m, workers := buildFed(t, false)
		t.Cleanup(m.Close)
		s, _ := m.NewSession(nil)
		if _, err := s.LocalRun(sums); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pinCap; i++ {
			o, _ := m.NewSession(nil)
			if _, err := o.LocalRun(sums); err != nil {
				t.Fatal(err)
			}
		}
		for _, w := range workers {
			if n := len(pinIDs(w)); n != pinCap {
				t.Errorf("worker %s holds %d pins, want the bound %d", w.ID(), n, pinCap)
			}
		}
		before := workers[0].DB().QueryCount()
		_, err := s.LocalRun(sums)
		var lost *PinLostError
		if !errors.As(err, &lost) || lost.Session != s.ID() {
			t.Fatalf("err = %v, want a PinLostError naming session %s", err, s.ID())
		}
		if got := workers[0].DB().QueryCount() - before; got != 0 {
			t.Errorf("the failed round ran %d statements, want 0", got)
		}
	})
	for _, secure := range []bool{false, true} {
		for _, overHTTP := range []bool{false, true} {
			t.Run(fmt.Sprintf("restarted/secure=%v/http=%v", secure, overHTTP), func(t *testing.T) {
				var cluster *smpc.Cluster
				var opts []WorkerOption
				if secure {
					cluster = buildCluster(t, smpc.ShamirScheme)
					opts = append(opts, WithSMPC(cluster))
				}
				var handles []*restartable
				var clients []WorkerClient
				for i := 0; i < 3; i++ {
					h := newRestartable(t, NewWorker(fmt.Sprintf("r%d", i), newWorkerDB(t, "edsd", 40, float64(i)), opts...), overHTTP)
					handles = append(handles, h)
					clients = append(clients, h)
				}
				m, err := NewMaster(clients, cluster, Security{UseSMPC: secure}, WithTolerance(Tolerance{MinWorkers: 2}))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(m.Close)
				s, _ := m.NewSession(nil)
				if _, err := s.Aggregate(sums); err != nil {
					t.Fatal(err)
				}
				db := newWorkerDB(t, "edsd", 40, 0)
				handles[0].cur.Store(NewWorker("r0", db, opts...))
				out, err := s.Aggregate(sums)
				if secure {
					var lost *PinLostError
					if !errors.As(err, &lost) || lost.Session != s.ID() || lost.Worker != "r0" {
						t.Fatalf("err = %v, want a PinLostError naming r0 and session %s", err, s.ID())
					}
				} else {
					if err != nil {
						t.Fatal(err)
					}
					if n, _ := out.Float("n"); n != 80 || !reflect.DeepEqual(s.Dropped(), []string{"r0"}) {
						t.Fatalf("n = %v dropped = %v, want 80 rows from r1, r2 with r0 dropped", n, s.Dropped())
					}
				}
				if got := db.QueryCount(); got != 0 {
					t.Errorf("the restarted worker ran %d statements for a lost pin, want 0", got)
				}
			})
		}
	}
}

// TestConcurrentSessionsBesideWrites runs sessions concurrently with
// DB.Append writers on every worker (run it under -race): each session's
// rounds read the one version its first round pinned, and once every
// session is closed one more request leaves no pin behind.
func TestConcurrentSessionsBesideWrites(t *testing.T) {
	m, workers := buildFed(t, false)
	t.Cleanup(m.Close)
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for _, w := range workers {
		writers.Add(1)
		go func(w *Worker) {
			defer writers.Done()
			ds := w.DB().Table(DataTable).Col(0).StringAt(0)
			for {
				select {
				case <-stop:
					return
				case <-time.After(200 * time.Microsecond):
					appendRows(t, w.DB(), ds, 1)
				}
			}
		}(w)
	}
	var sessions sync.WaitGroup
	for g := 0; g < 4; g++ {
		sessions.Add(1)
		go func() {
			defer sessions.Done()
			for k := 0; k < 5; k++ {
				s, err := m.NewSession(nil)
				if err != nil {
					t.Error(err)
					return
				}
				var first float64
				for r := 0; r < 3; r++ {
					out, err := s.Aggregate(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}})
					if err != nil {
						t.Error(err)
						break
					}
					n, _ := out.Float("n")
					if r == 0 {
						first = n
					} else if n != first {
						t.Errorf("session %s round %d read %v rows, round 1 read %v", s.ID(), r+1, n, first)
					}
				}
				s.Close()
			}
		}()
	}
	sessions.Wait()
	close(stop)
	writers.Wait()
	last, _ := m.NewSession(nil)
	if _, err := last.LocalRun(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}}); err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		if got := pinIDs(w); !reflect.DeepEqual(got, []string{last.ID()}) {
			t.Errorf("worker %s holds pins %v, want only %s", w.ID(), got, last.ID())
		}
	}
}
