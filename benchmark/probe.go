package main

import (
	"context"
	"time"
)

// classProbe is a fixed, single-client list of ops of every class, sent
// over HTTP after the window. It gives a traced run the latency of the
// classes its workload does not send, the log's write amplification and
// the cost of a forced compaction.
type classProbe struct {
	results             [][]result
	byClass             [numClasses][]float64 // ms, ascending
	walBytesPerUserByte float64
	compact             time.Duration
}

const (
	probeCheap    = 200 // point, range, perceptual: sub-millisecond each
	probeAnalytic = 5
	probeInserts  = 3 * deleteSpan
	probeUpdates  = 20
	probeDeletes  = 3
	// userBytesPerRow is what a client sends as one ratings row: four
	// 8-byte values.
	userBytesPerRow = 32
)

func (s *session) classProbe(ctx context.Context) (*classProbe, error) {
	r := streamRand(s.cfg.seed, s.w.name, 0, phaseProbe)
	g := s.gens[0].rephase(r)
	s.gens[0] = g
	p := &classProbe{}
	send := func(ops []op) {
		res := s.runClients(ctx, time.Now().Add(time.Hour), []func() (op, bool){fromList(ops)})
		// Booked batch by batch: a reply is checked against the state its
		// batch saw, before a later batch's writes reach the oracle.
		s.account(res)
		p.results = append(p.results, res...)
	}

	var reads []op
	for i := 0; i < probeCheap; i++ {
		reads = append(reads, g.point(), g.rng(), g.perceptual())
	}
	for i := 0; i < probeAnalytic; i++ {
		reads = append(reads, g.scanAgg(), g.topN(), g.groupBy(), g.join(), g.stream())
	}
	send(reads)

	var inserts []op
	for i := 0; i < probeInserts; i++ {
		inserts = append(inserts, g.insert())
	}
	settle := func() int64 {
		time.Sleep(50 * time.Millisecond) // the log's flusher runs every 5 ms
		return dirBytes(s.in.opts.DataDir, "")
	}
	before := settle()
	send(inserts)
	p.walBytesPerUserByte = float64(settle()-before) / (probeInserts * userBytesPerRow)

	// Expansions go before the updates: their answers filter on year, and
	// the oracle learns of acknowledged updates only after the probe.
	genres := len(s.in.d.genres)
	writes := expandOps(r, s.in.d.genres, (maxAliases+traceAliases)*genres, genres)
	writes = append(writes, directOp(directColumn(s.in.d.genres[0], maxAliases*genres)))
	for i := 0; i < probeUpdates; i++ {
		writes = append(writes, g.update())
	}
	for i := 0; i < probeDeletes; i++ {
		if o, ok := g.delete(); ok {
			writes = append(writes, o)
		}
	}
	send(writes)

	var err error
	p.compact, err = adminPost(ctx, s.hc, s.in.url+"/v1/admin/compact")
	_, p.byClass = latencies(p.results)
	return p, err
}
