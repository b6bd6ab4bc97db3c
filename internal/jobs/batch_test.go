package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The batch half of the scheduler: how submissions coalesce into
// batches (the TestCoalescer* tests), and what a batch run may and may
// not leave behind.

// recorder is a BatchRunFunc that records every sealed batch (as payload
// slices) and finishes each member with its payload.
type recorder struct {
	mu      sync.Mutex
	batches [][]any
}

func (r *recorder) run(members []*BatchMember) {
	var payloads []any
	for _, m := range members {
		payloads = append(payloads, m.Payload)
	}
	r.mu.Lock()
	r.batches = append(r.batches, payloads)
	r.mu.Unlock()
	for _, m := range members {
		m.Ctl().Phase(StateSampling)
		m.Finish(m.Payload, nil)
	}
}

// sizes returns the member count of every batch run so far.
func (r *recorder) sizes() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for _, b := range r.batches {
		out = append(out, len(b))
	}
	return out
}

// TestCoalescerMergesWindow: members submitted within one window for the
// same group run as ONE batch; a zero window makes each a batch of one.
// Each member still gets its own job and result.
func TestCoalescerMergesWindow(t *testing.T) {
	for _, tc := range []struct {
		window time.Duration
		sizes  string
	}{{0, "[1 1 1 1]"}, {40 * time.Millisecond, "[4]"}} {
		t.Run(fmt.Sprintf("window=%v", tc.window), func(t *testing.T) {
			var r recorder
			s := newSched(t, 1, 16, tc.window, r.run)
			var jobsList []*Job
			for i := 0; i < 4; i++ {
				j, created, err := s.Submit("movies", fmt.Sprintf("movies.col%d", i), "demand", i)
				if err != nil || !created {
					t.Fatalf("submit %d: created=%v err=%v", i, created, err)
				}
				jobsList = append(jobsList, j)
			}
			for i, j := range jobsList {
				res, err := j.Wait(context.Background())
				if err != nil {
					t.Fatalf("job %d: %v", i, err)
				}
				if res != i {
					t.Fatalf("job %d result = %v, want %d", i, res, i)
				}
			}
			if got := fmt.Sprint(r.sizes()); got != tc.sizes {
				t.Fatalf("batch sizes %s, want %s", got, tc.sizes)
			}
		})
	}
}

// TestCoalescerGroupIsolation: different groups never share a batch.
func TestCoalescerGroupIsolation(t *testing.T) {
	eachWindow(t, func(t *testing.T, window time.Duration) {
		var r recorder
		s := newSched(t, 2, 16, window, r.run)
		j1, _, _ := s.Submit("movies", "movies.a", "demand", "a")
		j2, _, _ := s.Submit("books", "books.a", "demand", "b")
		if _, err := j1.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := j2.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(r.sizes()); got != "[1 1]" {
			t.Fatalf("batch sizes %s, want [1 1] (groups merged)", got)
		}
	})
}

// TestCoalescerSingleflight: re-submitting a key while its job is pending
// or running joins the existing job; the joiner's payload and origin are
// discarded.
func TestCoalescerSingleflight(t *testing.T) {
	eachWindow(t, func(t *testing.T, window time.Duration) {
		release := make(chan struct{})
		s := newSched(t, 2, 16, window, func(members []*BatchMember) {
			<-release
			for _, m := range members {
				m.Finish(m.Payload, nil)
			}
		})
		j1, created1, _ := s.Submit("movies", "movies.a", "demand", 1)
		j2, created2, _ := s.Submit("movies", "movies.a", "speculative", 2)
		if !created1 || created2 {
			t.Fatalf("created = %v/%v, want true/false", created1, created2)
		}
		if j1 != j2 {
			t.Fatal("duplicate key produced a second job")
		}
		close(release)
		if res, err := j1.Wait(context.Background()); err != nil || res != 1 || j1.Origin() != "demand" {
			t.Fatalf("res=%v err=%v origin=%q, want 1/nil/demand", res, err, j1.Origin())
		}
	})
}

// TestCoalescerFailsUnfinishedMembers: a run func that forgets members or
// panics must still complete every job (with an error), never hang them.
func TestCoalescerFailsUnfinishedMembers(t *testing.T) {
	eachWindow(t, func(t *testing.T, window time.Duration) {
		var calls atomic.Int32
		s := newSched(t, 2, 16, window, func(members []*BatchMember) {
			if calls.Add(1) == 2 {
				panic("boom")
			}
			// First batch: finish nobody.
		})
		j1, _, _ := s.Submit("g1", "g1.a", "demand", nil)
		if _, err := j1.Wait(context.Background()); err == nil {
			t.Fatal("unfinished member completed without error")
		}
		j2, _, _ := s.Submit("g2", "g2.a", "demand", nil)
		if _, err := j2.Wait(context.Background()); err == nil {
			t.Fatal("panicked batch left member without error")
		}
		if st := j2.Status(); st.State != StateFailed {
			t.Fatalf("state = %s, want failed", st.State)
		}
	})
}

// TestCoalescerCloseFlushes: Close runs pending batches instead of
// dropping them, waits for them, then rejects new submissions.
func TestCoalescerCloseFlushes(t *testing.T) {
	for _, window := range []time.Duration{0, time.Hour} { // an hour never fires on its own
		t.Run(fmt.Sprintf("window=%v", window), func(t *testing.T) {
			var r recorder
			s := NewScheduler(2, 16, window, r.run)
			j, _, _ := s.Submit("movies", "movies.a", "demand", "x")
			s.Close()
			select {
			case <-j.Done():
			default:
				t.Fatal("Close returned with batch still unfinished")
			}
			if got := fmt.Sprint(r.sizes()); got != "[1]" {
				t.Fatalf("batch sizes %s, want [1]", got)
			}
			if _, _, err := s.Submit("movies", "movies.b", "demand", "y"); !errors.Is(err, ErrClosed) {
				t.Fatalf("submit after Close: %v, want ErrClosed", err)
			}
		})
	}
}

// TestCoalescerBackpressure: admissions beyond the queue depth of members
// whose batches have not started are shed with ErrQueueFull — the
// bounded-admission contract the HTTP layer's 503 path relies on. A
// running batch no longer counts.
func TestCoalescerBackpressure(t *testing.T) {
	for _, window := range []time.Duration{0, time.Hour} {
		t.Run(fmt.Sprintf("window=%v", window), func(t *testing.T) {
			block := make(chan struct{})
			started := make(chan struct{}, 4)
			s := NewScheduler(1, 2, window, func(members []*BatchMember) {
				started <- struct{}{}
				<-block
				for _, m := range members {
					m.Finish(nil, nil)
				}
			})
			admitted := 2
			if window == 0 {
				if _, _, err := s.Submit("g", "g.run", "demand", nil); err != nil {
					t.Fatal(err)
				}
				<-started // running, so no longer pending
			}
			for i := 0; i < admitted; i++ {
				if _, _, err := s.Submit("g", fmt.Sprintf("g.%d", i), "demand", nil); err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
			}
			if _, _, err := s.Submit("g", "g.over", "demand", nil); !errors.Is(err, ErrQueueFull) {
				t.Fatalf("err = %v, want ErrQueueFull at depth 2", err)
			}
			close(block)
			s.Close()
		})
	}
}

// TestCoalescerBoundsConcurrentBatches: no more batches execute at once
// than the scheduler has workers.
func TestCoalescerBoundsConcurrentBatches(t *testing.T) {
	eachWindow(t, func(t *testing.T, window time.Duration) {
		var running, maxRunning atomic.Int32
		s := newSched(t, 1, 16, window, func(members []*BatchMember) {
			cur := running.Add(1)
			for {
				old := maxRunning.Load()
				if cur <= old || maxRunning.CompareAndSwap(old, cur) {
					break
				}
			}
			time.Sleep(20 * time.Millisecond)
			running.Add(-1)
			for _, m := range members {
				m.Finish(nil, nil)
			}
		})
		var handles []*Job
		for i := 0; i < 4; i++ {
			j, created, err := s.Submit(fmt.Sprintf("g%d", i), fmt.Sprintf("g%d.a", i), "demand", nil)
			if err != nil || !created {
				t.Fatalf("submit %d: created=%v err=%v", i, created, err)
			}
			handles = append(handles, j)
		}
		for i, j := range handles {
			if _, err := j.Wait(context.Background()); err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
		}
		if got := maxRunning.Load(); got != 1 {
			t.Fatalf("max concurrent batches = %d, want 1 (worker count)", got)
		}
	})
}

// TestCoalescerLedgerAndHistory: every member appears in the history and
// its Ctl charges land in its own ledger and in Totals.
func TestCoalescerLedgerAndHistory(t *testing.T) {
	eachWindow(t, func(t *testing.T, window time.Duration) {
		s := newSched(t, 2, 16, window, func(members []*BatchMember) {
			for _, m := range members {
				n := m.Payload.(int)
				m.Ctl().Charge(10*n, float64(n), 1)
				m.Finish(nil, nil)
			}
		})
		ja, _, _ := s.Submit("movies", "movies.a", "demand", 1)
		jb, _, _ := s.Submit("movies", "movies.b", "demand", 2)
		_, _ = ja.Wait(context.Background())
		_, _ = jb.Wait(context.Background())

		if len(s.Jobs()) != 2 {
			t.Fatalf("history has %d jobs, want 2", len(s.Jobs()))
		}
		tot := s.Totals()
		if tot.Judgments != 30 || tot.Cost != 3 || tot.Charges != 2 {
			t.Fatalf("totals = %+v, want 30 judgments, $3, 2 charges", tot)
		}
		if st := ja.Status(); st.Ledger.Judgments != 10 {
			t.Fatalf("job a ledger = %+v, want 10 judgments", st.Ledger)
		}
	})
}
