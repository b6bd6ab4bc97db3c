package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Per-API-key budget caps.
//
// Crowd elicitation spends real money, so the serving layer attributes
// expansions to API keys and the database enforces a hard dollar cap per
// key BEFORE any HIT is issued: the projected cost of the sampling phase
// is checked against the key's remaining budget, and an expansion that
// would blow the cap is rejected up front — no partial HIT groups, no
// surprise charges. Caps and cumulative spend are durable (typed WAL
// records + snapshot fields), so a restart preserves both: a key that was
// over budget before a crash is still over budget after it.

// ErrBudgetExceeded marks an expansion rejected because the attributed
// API key's cap cannot cover the projected crowd cost. The HTTP layer
// maps it to 402 Payment Required.
var ErrBudgetExceeded = errors.New("core: budget cap exceeded")

// BudgetStatus is one API key's durable budget state.
type BudgetStatus struct {
	Key   string  `json:"key"`
	Cap   float64 `json:"cap"`
	Spent float64 `json:"spent"`
}

// budgetBook tracks caps, durable spend, and transient in-flight
// reservations per API key. The zero value is usable.
type budgetBook struct {
	mu         sync.Mutex
	defaultCap float64
	caps       map[string]float64
	spent      map[string]float64
	// reserved holds projected costs of elicitations that have passed
	// the cap check but not yet booked their actual spend, so concurrent
	// (or batched) expansions under one key cannot collectively blow the
	// cap. Never persisted: a crash releases reservations by definition.
	reserved map[string]float64
}

// budgetCapRecord / budgetSpendRecord are the typed WAL payloads.
type budgetCapRecord struct {
	Key string  `json:"key"`
	Cap float64 `json:"cap"`
}

type budgetSpendRecord struct {
	Key    string  `json:"key"`
	Amount float64 `json:"amount"`
}

func (b *budgetBook) setCap(key string, limit float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.caps == nil {
		b.caps = map[string]float64{}
		b.spent = map[string]float64{}
	}
	b.caps[key] = limit
}

func (b *budgetBook) addSpend(key string, amount float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.spent == nil {
		b.caps = map[string]float64{}
		b.spent = map[string]float64{}
	}
	b.spent[key] += amount
}

func (b *budgetBook) status(key string) (BudgetStatus, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	limit, ok := b.caps[key]
	if !ok {
		return BudgetStatus{}, false
	}
	return BudgetStatus{Key: key, Cap: limit, Spent: b.spent[key]}, true
}

// SetBudget installs (or replaces) the dollar cap for an API key, durably.
// Spend already recorded against the key is kept — raising a cap unblocks
// a key, it never forgives past spending.
func (db *DB) SetBudget(key string, limit float64) error {
	if key == "" {
		return fmt.Errorf("core: budget cap requires a non-empty key")
	}
	if limit < 0 {
		return fmt.Errorf("core: budget cap must be non-negative, got %g", limit)
	}
	db.gate.RLock()
	defer db.gate.RUnlock()
	if err := db.logJSON(recBudgetCap, budgetCapRecord{Key: key, Cap: limit}, false); err != nil {
		return err
	}
	db.budgets.setCap(key, limit)
	return nil
}

// Budget returns one key's budget state; ok is false for unknown keys
// (unknown keys are uncapped unless a default budget is configured).
func (db *DB) Budget(key string) (BudgetStatus, bool) {
	return db.budgets.status(key)
}

// Budgets lists every key with a cap, sorted by key.
func (db *DB) Budgets() []BudgetStatus {
	db.budgets.mu.Lock()
	defer db.budgets.mu.Unlock()
	out := make([]BudgetStatus, 0, len(db.budgets.caps))
	for key, limit := range db.budgets.caps {
		out = append(out, BudgetStatus{Key: key, Cap: limit, Spent: db.budgets.spent[key]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// releaseNop is returned by reserveBudget for uncapped keys.
func releaseNop() {}

// reserveBudget reserves a projected crowd cost against key's cap:
// spent + outstanding reservations + projected must fit under the cap,
// or the elicitation is rejected before any HIT is issued. On success
// the projection is held as a reservation — concurrent and batched
// expansions under the same key see each other's holds — and the
// returned release MUST be called exactly once, after the actual spend
// has been booked via spendBudget (or the elicitation abandoned).
//
// A key never seen before inherits the default cap (if one is
// configured), durably, so the cap that rejected a request survives a
// restart even if the default flag later changes.
func (db *DB) reserveBudget(key string, projected float64) (release func(), err error) {
	if key == "" {
		return releaseNop, nil
	}
	if _, ok := db.budgets.status(key); !ok {
		db.budgets.mu.Lock()
		defaultCap := db.budgets.defaultCap
		db.budgets.mu.Unlock()
		if defaultCap <= 0 {
			return releaseNop, nil // uncapped key
		}
		if err := db.SetBudget(key, defaultCap); err != nil {
			return nil, err
		}
	}
	b := &db.budgets
	b.mu.Lock()
	defer b.mu.Unlock()
	limit := b.caps[key]
	held := b.reserved[key]
	if b.spent[key]+held+projected > limit+1e-9 {
		mBudgetDenials.Inc()
		return nil, fmt.Errorf("%w: key %q cap $%.2f, spent $%.2f, reserved $%.2f, projected $%.2f",
			ErrBudgetExceeded, key, limit, b.spent[key], held, projected)
	}
	if b.reserved == nil {
		b.reserved = map[string]float64{}
	}
	b.reserved[key] += projected
	var once sync.Once
	return func() {
		once.Do(func() {
			b.mu.Lock()
			defer b.mu.Unlock()
			if r := b.reserved[key] - projected; r > 1e-12 {
				b.reserved[key] = r
			} else {
				delete(b.reserved, key)
			}
		})
	}, nil
}

// checkBudget is the read-only variant of reserveBudget for submission-
// time pre-flight: the same cap arithmetic, no hold taken (the job
// re-reserves authoritatively before issuing HITs).
func (db *DB) checkBudget(key string, projected float64) error {
	release, err := db.reserveBudget(key, projected)
	if err == nil {
		release()
	}
	return err
}

// spendBudget books actual crowd spend against a key, durably. Caller
// holds db.gate.RLock (the same discipline as logCharge).
func (db *DB) spendBudget(key string, amount float64) {
	if key == "" || amount == 0 {
		return
	}
	_ = db.logJSON(recBudgetSpend, budgetSpendRecord{Key: key, Amount: amount}, false) // a failure latches in the WAL
	db.budgets.addSpend(key, amount)
}

// projectedCost is the up-front dollar estimate for judging n items under
// the given options — the quantity budget caps are enforced against.
func projectedCost(nItems int, opts *ExpandOptions) float64 {
	perJudgment := opts.Job.PayPerHIT / float64(opts.Job.ItemsPerHIT)
	return float64(nItems) * float64(opts.Assignments) * perJudgment
}
