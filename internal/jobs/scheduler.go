// Package jobs runs asynchronous expansion jobs: a typed job lifecycle,
// singleflight deduplication, per-job cost accounting and time-window
// batching, on one execution path.
//
// Schema expansion is slow and expensive — a crowd job takes simulated
// minutes and costs real dollars — so it must never run on a query
// goroutine's critical path, and N concurrent queries touching the same
// missing column must trigger exactly one crowd job. Expansions of one
// table also tend to arrive in bursts (a dashboard touching four missing
// genre columns), and each crowd job pays the marketplace's fixed
// overhead, so the scheduler runs batches and nothing else: Submit adds
// a job to its group's open batch, the batch is sealed when the group's
// window closes — at once with a zero window, which makes every job a
// batch of one — and a sealed batch goes to the one BatchRunFunc, at
// most as many at a time as the scheduler has workers.
//
// Every member keeps its own *Job: polling, per-job ledgers and
// singleflight work the same whether a batch holds one member or many.
// The scheduler knows nothing about SQL, tables or crowds: groups and
// keys are opaque strings and payloads opaque values. internal/core
// groups expansions by table and merges a batch's sampling phases into
// shared HIT groups, charged once.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// State is a job lifecycle phase. Jobs move strictly forward:
// queued → sampling → training → filling → done|failed. CROWD-method
// expansions skip training (there is no model); failures may occur in any
// phase.
type State string

const (
	StateQueued   State = "queued"
	StateSampling State = "sampling"
	StateTraining State = "training"
	StateFilling  State = "filling"
	StateDone     State = "done"
	StateFailed   State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Ledger accounts the crowd work charged to one job.
type Ledger struct {
	Judgments int
	Cost      float64
	Minutes   float64
	Charges   int
}

// Ctl is handed to a running job so it can report phase transitions and
// crowd spending without knowing about the scheduler.
type Ctl struct{ job *Job }

// Phase records a lifecycle transition. Terminal states are owned by the
// scheduler and ignored here.
func (c *Ctl) Phase(s State) {
	if s.Terminal() {
		return
	}
	j := c.job
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || s == j.state {
		return
	}
	j.observePhaseLocked()
	j.state = s
}

// observePhaseLocked books the time spent in the job's current phase
// into the per-phase histogram and restarts the phase clock. Caller
// holds j.mu. The first transition measures from creation, so queued
// wait is attributed to the "queued" phase.
func (j *Job) observePhaseLocked() {
	now := time.Now()
	from := j.phaseAt
	if from.IsZero() {
		from = j.created
	}
	mPhaseSeconds.With(string(j.state)).Observe(now.Sub(from).Seconds())
	j.phaseAt = now
}

// Charge adds crowd work to the job's ledger.
func (c *Ctl) Charge(judgments int, cost, minutes float64) {
	c.job.mu.Lock()
	defer c.job.mu.Unlock()
	c.job.ledger.Judgments += judgments
	c.job.ledger.Cost += cost
	c.job.ledger.Minutes += minutes
	c.job.ledger.Charges++
}

// Job is one scheduled unit of work. All fields are guarded by mu; readers
// use Status for a consistent snapshot and Done/Wait for completion.
type Job struct {
	id      string
	key     string
	created time.Time
	done    chan struct{}

	mu       sync.Mutex
	state    State
	started  time.Time
	finished time.Time
	phaseAt  time.Time // start of the current phase, for mPhaseSeconds
	result   any
	err      error
	ledger   Ledger
	origin   string
}

// ID returns the job's unique identifier.
func (j *Job) ID() string { return j.id }

// Key returns the singleflight key the job was submitted under.
func (j *Job) Key() string { return j.key }

// Origin returns what triggered the job (demand | speculative | admin),
// as passed to Submit. The scheduler only carries the tag; the layer that
// knows the provenance sets it, and Status surfaces it for spend
// auditing.
func (j *Job) Origin() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.origin
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes or ctx is cancelled, then returns the
// job's result and error.
func (j *Job) Wait(ctx context.Context) (any, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Result returns the job's result and error; valid only after Done.
func (j *Job) Result() (any, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Status is a point-in-time snapshot of a job, safe to serialize.
type Status struct {
	ID       string    `json:"id"`
	Key      string    `json:"key"`
	State    State     `json:"state"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	Error    string    `json:"error,omitempty"`
	Ledger   Ledger    `json:"ledger"`
	// Origin records what triggered the job: demand (a user query hit a
	// missing column), speculative (the workload predictor pre-expanded),
	// or admin (/admin/expand). Empty for jobs predating the tag.
	Origin string `json:"origin,omitempty"`
	// Result carries the job's outcome once terminal (nil otherwise).
	Result any `json:"result,omitempty"`
}

// Status returns a snapshot of the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.id, Key: j.key, State: j.state,
		Created: j.created, Started: j.started, Finished: j.finished,
		Ledger: j.ledger, Origin: j.origin,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state.Terminal() {
		st.Result = j.result
	}
	return st
}

// ErrQueueFull is returned by Submit when as many members as the queue
// depth are admitted whose batches have not started; callers should
// retry later (the HTTP layer maps it to 503).
var ErrQueueFull = errors.New("jobs: queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("jobs: scheduler closed")

// BatchMember is one submission inside a sealed batch.
type BatchMember struct {
	// Payload is the opaque value passed to Submit.
	Payload any

	job      *Job
	sched    *Scheduler
	finished atomic.Bool
}

// Job returns the member's job handle.
func (m *BatchMember) Job() *Job { return m.job }

// Ctl returns the member's control handle for phase/charge reporting.
func (m *BatchMember) Ctl() *Ctl { return &Ctl{job: m.job} }

// Finish completes the member's job with the given result or error.
// Only the first call has effect; the batch runner uses this to complete
// members one by one as their shares of the batch resolve.
func (m *BatchMember) Finish(result any, err error) {
	if !m.finished.CompareAndSwap(false, true) {
		return
	}
	m.sched.finish(m.job, result, err)
}

// Finished reports whether Finish has been called.
func (m *BatchMember) Finished() bool { return m.finished.Load() }

// BatchRunFunc executes one sealed batch. It must call Finish on every
// member (members it leaves unfinished are failed by the scheduler); a
// panic fails every unfinished member rather than killing the process.
type BatchRunFunc func(members []*BatchMember)

// Scheduler admits jobs into per-group batches and runs sealed batches
// on at most workers goroutines at a time. Submissions are deduplicated
// by key while a job for that key is pending or running (singleflight);
// once it finishes, the key is free again so explicit re-expansion stays
// possible. At most depth members may be admitted whose batches have not
// started before Submit sheds load with ErrQueueFull.
type Scheduler struct {
	window time.Duration
	run    BatchRunFunc
	sem    chan struct{} // bounds concurrently running batches
	depth  int
	wg     sync.WaitGroup // running batches

	// OnTerminal, when set, is invoked (on the batch's goroutine) after a
	// job reaches a terminal state and before its Done channel is closed.
	// The durability layer uses it to log a completion record so a
	// finished expansion is never re-elicited after a restart. Set it
	// before the first Submit; it is not synchronized afterwards.
	OnTerminal func(Status)

	mu       sync.Mutex
	closed   bool
	seq      int
	pending  int               // members admitted whose batch has not started
	groups   map[string]*batch // group → its open batch
	inflight map[string]*Job   // key → active job (singleflight window)
	jobs     map[string]*Job   // id → job, kept after completion for polling
	order    []string          // job IDs in submission order
}

// batch is a group's open batch: the members admitted since it opened,
// and the timer that seals it when the window closes.
type batch struct {
	members []*BatchMember
	timer   *time.Timer
}

// NewScheduler creates a scheduler that runs at most workers batches at
// once, sheds submissions beyond depth pending members, holds each
// group's batch open for window and runs sealed batches with run.
// Non-positive workers and depth get modest defaults (2 and 64); a
// non-positive window seals every batch at submit, so each job runs as a
// batch of one. Constructing a scheduler starts no goroutine.
func NewScheduler(workers, depth int, window time.Duration, run BatchRunFunc) *Scheduler {
	if workers <= 0 {
		workers = 2
	}
	if depth <= 0 {
		depth = 64
	}
	return &Scheduler{
		window: max(window, 0), run: run, depth: depth,
		sem:      make(chan struct{}, workers),
		groups:   map[string]*batch{},
		inflight: map[string]*Job{},
		jobs:     map[string]*Job{},
	}
}

// Submit adds payload to the group's open batch as a new job under the
// singleflight key, tagged with origin. If a job for key is already
// pending or running, that job is returned with created=false and
// payload is discarded — this is how N concurrent queries on the same
// missing column share one crowd job. Otherwise the job joins the
// group's open batch, opening one (and starting its window timer) if
// none is open; with a zero window the batch is sealed and started here.
func (s *Scheduler) Submit(group, key, origin string, payload any) (job *Job, created bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	if j, ok := s.inflight[key]; ok {
		return j, false, nil
	}
	if s.pending >= s.depth {
		return nil, false, ErrQueueFull
	}
	s.seq++
	j := &Job{
		id:      fmt.Sprintf("job-%d", s.seq),
		key:     key,
		origin:  origin,
		created: time.Now(),
		done:    make(chan struct{}),
		state:   StateQueued,
	}
	s.registerLocked(j)
	s.pending++
	mQueueDepth.Inc()
	m := &BatchMember{Payload: payload, job: j, sched: s}
	if s.window == 0 {
		s.startLocked([]*BatchMember{m})
		return j, true, nil
	}
	g := s.groups[group]
	if g == nil {
		g = &batch{}
		s.groups[group] = g
		g.timer = time.AfterFunc(s.window, func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.sealLocked(group, g)
		})
	}
	g.members = append(g.members, m)
	return j, true, nil
}

// registerLocked installs a new job into the singleflight map, the ID
// index, and the history. Caller holds s.mu.
func (s *Scheduler) registerLocked(j *Job) {
	s.inflight[j.key] = j
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
}

// maxRetainedJobs bounds the completed-job history kept for polling; a
// long-running server otherwise accumulates every report ever produced.
// Active (non-terminal) jobs are never evicted.
const maxRetainedJobs = 1024

// evictLocked drops the oldest terminal jobs once the history exceeds
// maxRetainedJobs. Caller holds s.mu.
func (s *Scheduler) evictLocked() {
	excess := len(s.order) - maxRetainedJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		evictable := excess > 0 && func() bool {
			j.mu.Lock()
			defer j.mu.Unlock()
			return j.state.Terminal()
		}()
		if evictable {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// sealLocked closes the group's batch g, if it is still the open one,
// and starts it. Caller holds s.mu.
func (s *Scheduler) sealLocked(group string, g *batch) {
	if s.groups[group] != g {
		return // already sealed by Close
	}
	delete(s.groups, group)
	s.startLocked(g.members)
}

// startLocked runs a sealed batch on a fresh goroutine. Caller holds
// s.mu, so Close's Wait cannot miss it.
func (s *Scheduler) startLocked(members []*BatchMember) {
	s.wg.Add(1)
	go s.runBatch(members)
}

func (s *Scheduler) runBatch(members []*BatchMember) {
	defer s.wg.Done()
	// Sealed batches beyond the worker count wait here instead of
	// engaging the crowd all at once.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	s.mu.Lock()
	s.pending -= len(members)
	s.mu.Unlock()
	mQueueDepth.Add(-int64(len(members)))

	now := time.Now()
	for _, m := range members {
		m.job.mu.Lock()
		m.job.started = now
		m.job.mu.Unlock()
	}
	defer func() {
		r := recover()
		for _, m := range members {
			if !m.Finished() {
				if r != nil {
					m.Finish(nil, fmt.Errorf("jobs: batch run panicked: %v", r))
				} else {
					m.Finish(nil, fmt.Errorf("jobs: batch run ended without finishing job %s", m.job.id))
				}
			}
		}
	}()
	s.run(members)
}

// finish drives a job to its terminal state: it records the outcome,
// releases the singleflight key, runs the completion hook, and closes
// Done.
func (s *Scheduler) finish(j *Job, result any, err error) {
	j.mu.Lock()
	j.result, j.err = result, err
	j.finished = time.Now()
	if !j.state.Terminal() {
		j.observePhaseLocked() // close out the last running phase
	}
	if err != nil {
		j.state = StateFailed
	} else {
		j.state = StateDone
	}
	mJobsTotal.With(string(j.state)).Inc()
	j.mu.Unlock()

	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
	// The completion hook runs BEFORE Done is closed: a client woken by
	// Done (and about to consume the expansion) must never observe a
	// completion whose durable record hasn't been written yet — a crash
	// in between would re-elicit work the client already consumed.
	if s.OnTerminal != nil {
		s.OnTerminal(j.Status())
	}
	close(j.done)
}

// Pending returns the number of members admitted whose batch has not
// started. Speculative submitters use it as a headroom check so that
// best-effort work never fills the admission bound and starves demand
// submissions with ErrQueueFull.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// Depth returns the admission bound on pending members.
func (s *Scheduler) Depth() int { return s.depth }

// RestoredJob describes one terminal job recovered from durable storage,
// for Restore.
type RestoredJob struct {
	ID       string
	Key      string
	State    State
	Created  time.Time
	Started  time.Time
	Finished time.Time
	Err      error
	Result   any
	Ledger   Ledger
	Origin   string
}

// Restore repopulates the completed-job history (IDs, states, per-job
// ledgers) from jobs recovered off the WAL, so polling and per-job cost
// accounting survive a restart. Non-terminal entries are skipped — a job
// that was mid-flight when the process died left no completion record and
// simply re-runs via singleflight on the next query. Jobs whose ID is
// already present are ignored. The internal ID sequence advances past
// every restored ID so new jobs never collide.
func (s *Scheduler) Restore(restored []RestoredJob) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range restored {
		if !r.State.Terminal() {
			continue
		}
		if _, dup := s.jobs[r.ID]; dup {
			continue
		}
		j := &Job{
			id: r.ID, key: r.Key, created: r.Created, done: make(chan struct{}),
			state: r.State, started: r.Started, finished: r.Finished,
			result: r.Result, err: r.Err, ledger: r.Ledger, origin: r.Origin,
		}
		close(j.done)
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		var n int
		if _, err := fmt.Sscanf(r.ID, "job-%d", &n); err == nil && n > s.seq {
			s.seq = n
		}
	}
	s.evictLocked()
}

// Get returns the job with the given ID, including finished ones.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns status snapshots of every retained job, in submission
// order.
func (s *Scheduler) Jobs() []Status {
	s.mu.Lock()
	list := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		list = append(list, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, 0, len(list))
	for _, j := range list {
		out = append(out, j.Status())
	}
	return out
}

// Totals sums the per-job ledgers of all jobs.
func (s *Scheduler) Totals() Ledger {
	var sum Ledger
	for _, st := range s.Jobs() {
		sum.Judgments += st.Ledger.Judgments
		sum.Cost += st.Ledger.Cost
		sum.Minutes += st.Ledger.Minutes
		sum.Charges += st.Ledger.Charges
	}
	return sum
}

// Close stops accepting jobs, seals and starts every open batch without
// waiting for its window, and waits for all batches to finish. Safe to
// call more than once.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for group, g := range s.groups {
		g.timer.Stop()
		s.sealLocked(group, g)
	}
	s.mu.Unlock()
	s.wg.Wait()
}
