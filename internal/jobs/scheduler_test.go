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

// work is the payload of the tests' jobs: the member's own work, run by
// perJob.
type work func(ctl *Ctl) (any, error)

// perJob is a BatchRunFunc that runs each member's work in turn.
func perJob(members []*BatchMember) {
	for _, m := range members {
		res, err := m.Payload.(work)(m.Ctl())
		m.Finish(res, err)
	}
}

// windows are the batch windows every behaviour is checked at: a zero
// window seals each job into a batch of one at submit; a positive one
// holds a group's batch open.
var windows = []time.Duration{0, 10 * time.Millisecond}

// eachWindow runs f as one subtest per window.
func eachWindow(t *testing.T, f func(t *testing.T, window time.Duration)) {
	for _, w := range windows {
		t.Run(fmt.Sprintf("window=%v", w), func(t *testing.T) { f(t, w) })
	}
}

// newSched returns a scheduler closed when the test ends.
func newSched(t *testing.T, workers, depth int, window time.Duration, run BatchRunFunc) *Scheduler {
	s := NewScheduler(workers, depth, window, run)
	t.Cleanup(s.Close)
	return s
}

// submit submits w under key, in a group of its own.
func submit(s *Scheduler, key string, w work) (*Job, bool, error) {
	return s.Submit(key, key, "demand", w)
}

func TestJobLifecycle(t *testing.T) {
	eachWindow(t, func(t *testing.T, window time.Duration) {
		s := newSched(t, 1, 4, window, perJob)
		job, created, err := s.Submit("movies", "movies.comedy", "admin", work(func(ctl *Ctl) (any, error) {
			ctl.Phase(StateSampling)
			ctl.Charge(100, 0.25, 2.5)
			ctl.Phase(StateTraining)
			ctl.Phase(StateFilling)
			return "report", nil
		}))
		if err != nil || !created {
			t.Fatalf("Submit: created=%v err=%v", created, err)
		}
		if job.Origin() != "admin" {
			t.Fatalf("origin = %q at submit", job.Origin())
		}
		result, err := job.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if result != "report" {
			t.Fatalf("result = %v", result)
		}
		st := job.Status()
		if st.State != StateDone || st.Key != "movies.comedy" || st.Origin != "admin" {
			t.Fatalf("status = %+v", st)
		}
		if st.Ledger.Judgments != 100 || st.Ledger.Cost != 0.25 || st.Ledger.Charges != 1 {
			t.Fatalf("ledger = %+v", st.Ledger)
		}
		if st.Result != "report" {
			t.Fatalf("status result = %v", st.Result)
		}
		if st.Started.IsZero() || st.Finished.IsZero() || st.Started.Before(st.Created) {
			t.Fatalf("timestamps = %+v", st)
		}
	})
}

func TestJobFailureAndPanic(t *testing.T) {
	eachWindow(t, func(t *testing.T, window time.Duration) {
		s := newSched(t, 1, 4, window, perJob)
		boom := errors.New("boom")
		job, _, err := submit(s, "a", func(ctl *Ctl) (any, error) { return nil, boom })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(context.Background()); !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
		if st := job.Status(); st.State != StateFailed || st.Error == "" {
			t.Fatalf("status = %+v", st)
		}

		// A panicking job fails cleanly and the scheduler survives to run
		// more.
		pjob, _, err := submit(s, "b", func(ctl *Ctl) (any, error) { panic("kaboom") })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pjob.Wait(context.Background()); err == nil {
			t.Fatal("panic must surface as an error")
		}
		after, _, err := submit(s, "c", func(ctl *Ctl) (any, error) { return 42, nil })
		if err != nil {
			t.Fatal(err)
		}
		if v, err := after.Wait(context.Background()); err != nil || v != 42 {
			t.Fatalf("post-panic job: %v %v", v, err)
		}
	})
}

func TestSingleflightDedup(t *testing.T) {
	eachWindow(t, func(t *testing.T, window time.Duration) {
		s := newSched(t, 2, 16, window, perJob)
		release := make(chan struct{})
		var runs atomic.Int32
		run := work(func(ctl *Ctl) (any, error) {
			runs.Add(1)
			<-release
			return nil, nil
		})

		const n = 32
		jobSet := make([]*Job, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				j, _, err := submit(s, "movies.comedy", run)
				if err != nil {
					t.Error(err)
					return
				}
				jobSet[i] = j
			}(i)
		}
		wg.Wait()
		close(release)
		for _, j := range jobSet {
			if j != jobSet[0] {
				t.Fatal("concurrent submits under one key must share one job")
			}
		}
		jobSet[0].Wait(context.Background())
		if got := runs.Load(); got != 1 {
			t.Fatalf("run executed %d times, want 1", got)
		}

		// After completion the key is free: a new submit creates a new job.
		j2, created, err := submit(s, "movies.comedy", func(ctl *Ctl) (any, error) { return nil, nil })
		if err != nil || !created {
			t.Fatalf("resubmit: created=%v err=%v", created, err)
		}
		if j2 == jobSet[0] {
			t.Fatal("finished job must not absorb new submissions")
		}
	})
}

func TestWaitContextCancel(t *testing.T) {
	eachWindow(t, func(t *testing.T, window time.Duration) {
		s := newSched(t, 1, 4, window, perJob)
		release := make(chan struct{})
		job, _, err := submit(s, "slow", func(ctl *Ctl) (any, error) { <-release; return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		if _, err := job.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v", err)
		}
		close(release)
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}

func TestQueueFullAndClose(t *testing.T) {
	eachWindow(t, func(t *testing.T, window time.Duration) {
		s := NewScheduler(1, 1, window, perJob)
		release := make(chan struct{})
		block := work(func(ctl *Ctl) (any, error) { <-release; return nil, nil })
		first, _, err := submit(s, "k0", block)
		if err != nil {
			t.Fatal(err)
		}
		// One member may wait for its batch to start; whether k0 still
		// waits or already runs, a few more distinct keys must bounce.
		bounced := false
		for i := 1; i < 10 && !bounced; i++ {
			_, _, err := submit(s, fmt.Sprintf("k%d", i), block)
			if errors.Is(err, ErrQueueFull) {
				bounced = true
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if !bounced {
			t.Fatal("bounded queue never reported ErrQueueFull")
		}

		close(release)
		first.Wait(context.Background())
		s.Close()
		if _, _, err := submit(s, "late", block); !errors.Is(err, ErrClosed) {
			t.Fatalf("submit after close: err = %v", err)
		}
		// All accepted jobs finished at Close.
		for _, st := range s.Jobs() {
			if !st.State.Terminal() {
				t.Fatalf("job %s left in state %s after Close", st.ID, st.State)
			}
		}
	})
}

// TestJobsListRacesSubmit hammers Jobs()/Get() while submissions land —
// a regression test for an unsynchronized map read in Jobs (run under
// -race in CI).
func TestJobsListRacesSubmit(t *testing.T) {
	eachWindow(t, func(t *testing.T, window time.Duration) {
		s := newSched(t, 2, 256, window, perJob)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Jobs()
				s.Get("job-1")
			}
		}()
		for i := 0; i < 200; i++ {
			if _, _, err := s.Submit("g", fmt.Sprintf("k%d", i), "demand", work(func(ctl *Ctl) (any, error) { return nil, nil })); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
	})
}

func TestJobsOrderAndTotals(t *testing.T) {
	eachWindow(t, func(t *testing.T, window time.Duration) {
		s := newSched(t, 2, 16, window, perJob)
		var handles []*Job
		for i := 0; i < 3; i++ {
			cost := float64(i + 1)
			j, _, err := s.Submit("g", fmt.Sprintf("key-%d", i), "demand", work(func(ctl *Ctl) (any, error) {
				ctl.Charge(1, cost, 0)
				return nil, nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, j)
		}
		for _, j := range handles {
			j.Wait(context.Background())
		}
		list := s.Jobs()
		if len(list) != 3 {
			t.Fatalf("len = %d", len(list))
		}
		for i, st := range list {
			if st.Key != fmt.Sprintf("key-%d", i) {
				t.Fatalf("order violated: %d → %s", i, st.Key)
			}
		}
		tot := s.Totals()
		if tot.Judgments != 3 || tot.Cost != 6 || tot.Charges != 3 {
			t.Fatalf("totals = %+v", tot)
		}
	})
}

// TestRestoreRepopulatesHistory verifies the restart path: terminal jobs
// recovered from the WAL reappear in polling and ledger accounting, new
// IDs do not collide with restored ones, and mid-flight (non-terminal)
// records are dropped so singleflight can re-run them.
func TestRestoreRepopulatesHistory(t *testing.T) {
	eachWindow(t, func(t *testing.T, window time.Duration) {
		s := newSched(t, 1, 4, window, perJob)
		s.Restore([]RestoredJob{
			{ID: "job-3", Key: "movies.comedy", State: StateDone, Origin: "admin",
				Result: "report", Ledger: Ledger{Judgments: 100, Cost: 2.5, Minutes: 8, Charges: 1}},
			{ID: "job-1", Key: "movies.horror", State: StateFailed, Err: errors.New("single-class sample")},
			{ID: "job-2", Key: "movies.drama", State: StateFilling}, // mid-flight at crash: dropped
			{ID: "job-3", Key: "movies.comedy", State: StateDone},   // duplicate: ignored
		})

		list := s.Jobs()
		if len(list) != 2 {
			t.Fatalf("restored %d jobs, want 2: %+v", len(list), list)
		}
		st, ok := s.Get("job-3")
		if !ok {
			t.Fatal("job-3 not restored")
		}
		got := st.Status()
		if got.State != StateDone || got.Ledger.Cost != 2.5 || got.Result != "report" || got.Origin != "admin" {
			t.Fatalf("job-3 status = %+v", got)
		}
		// Wait must return instantly for a restored terminal job.
		if res, err := st.Wait(context.Background()); err != nil || res != "report" {
			t.Fatalf("Wait on restored job: %v, %v", res, err)
		}
		if fj, ok := s.Get("job-1"); !ok {
			t.Fatal("failed job not restored")
		} else if st := fj.Status(); st.State != StateFailed || st.Error == "" {
			t.Fatalf("failed job status = %+v", st)
		}
		if totals := s.Totals(); totals.Cost != 2.5 || totals.Judgments != 100 {
			t.Fatalf("totals = %+v", totals)
		}

		// A new submission must skip past restored IDs.
		j, created, err := submit(s, "movies.scifi", func(ctl *Ctl) (any, error) { return nil, nil })
		if err != nil || !created {
			t.Fatalf("submit after restore: created=%v err=%v", created, err)
		}
		if j.ID() != "job-4" {
			t.Fatalf("new job ID %s, want job-4", j.ID())
		}
	})
}

// TestOnTerminalFires: the completion hook sees the terminal snapshot,
// with the origin the job was submitted under.
func TestOnTerminalFires(t *testing.T) {
	eachWindow(t, func(t *testing.T, window time.Duration) {
		s := newSched(t, 1, 4, window, perJob)
		ch := make(chan Status, 2)
		s.OnTerminal = func(st Status) { ch <- st }
		j, _, err := s.Submit("g", "a", "speculative", work(func(ctl *Ctl) (any, error) {
			ctl.Charge(10, 0.5, 1)
			return "ok", nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		st := <-ch
		if st.ID != j.ID() || st.State != StateDone || st.Ledger.Judgments != 10 || st.Origin != "speculative" {
			t.Fatalf("OnTerminal status = %+v", st)
		}
		_, _, err = s.Submit("g", "b", "admin", work(func(ctl *Ctl) (any, error) { return nil, errors.New("boom") }))
		if err != nil {
			t.Fatal(err)
		}
		st = <-ch
		if st.State != StateFailed || st.Error != "boom" || st.Origin != "admin" {
			t.Fatalf("OnTerminal failed-status = %+v", st)
		}
	})
}

// TestQueueDepthGaugeCountsPendingMembers: crowddb_jobs_queue_depth goes
// up when a member is admitted and down when its batch starts, at either
// window.
func TestQueueDepthGaugeCountsPendingMembers(t *testing.T) {
	eachWindow(t, func(t *testing.T, window time.Duration) {
		base := mQueueDepth.Value()
		release := make(chan struct{})
		started := make(chan struct{}, 8)
		if window > 0 {
			window = time.Hour // sealed only by Close
		}
		s := NewScheduler(1, 8, window, func(members []*BatchMember) {
			started <- struct{}{}
			<-release
			for _, m := range members {
				m.Finish(nil, nil)
			}
		})
		var handles []*Job
		for i := 0; i < 3; i++ {
			j, _, err := s.Submit("g", fmt.Sprintf("k%d", i), "demand", nil)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, j)
		}
		want := int64(3) // all three wait in the open batch
		if window == 0 {
			<-started // k0's batch holds the one worker slot
			want = 2
		}
		if got := mQueueDepth.Value() - base; got != want || int64(s.Pending()) != want {
			t.Fatalf("queue depth %d, pending %d, want %d", got, s.Pending(), want)
		}
		close(release)
		s.Close()
		for _, j := range handles {
			<-j.Done()
		}
		if got := mQueueDepth.Value() - base; got != 0 || s.Pending() != 0 {
			t.Fatalf("queue depth %d, pending %d after every batch started, want 0", got, s.Pending())
		}
	})
}
