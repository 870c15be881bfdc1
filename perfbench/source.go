package main

import (
	"context"
	"fmt"
	"time"

	"github.com/ideadb/idea"
)

// sweepEvery is how often the source goroutine polls outstanding
// freshness samples.
const sweepEvery = time.Millisecond

// statsEvery is how often the source goroutine samples Feed.Stats for
// the intake-buffer gauge.
const statsEvery = 10 * time.Millisecond

// updateStream is the reference-update half of a merged schedule: the
// benchmark's own update client, which times and counts every upsert.
type updateStream struct {
	rate    float64     // upserts per second
	docs    [][]byte    // pre-generated SafetyRatings rows
	applied func(i int) // called after upsert i succeeded

	latNs  []int64
	errors int
	sent   int
}

// source is a FeedSource whose Run is the benchmark's single load
// goroutine. In an open loop (rate > 0) it emits record i at
// start + i/rate, interleaving reference upserts from a merged
// schedule; in a closed loop it emits as fast as intake accepts. Either
// way it keeps sampled records' freshness: every sweepEvery it polls
// the outstanding samples through Cluster.Get until each is readable
// (and, when needField is set, carries that field).
type source struct {
	c         *idea.Cluster
	dataset   string
	needField string
	recs      tweets
	rate      float64       // records per second; 0 = closed loop
	stop      chan struct{} // open loop only: end early when closed
	every     int           // sample every every-th record
	updates   *updateStream // optional
	tracer    *Tracer       // nil when untraced
	toggle    time.Duration // traced open loops: switch tracing on and off this often
	window    time.Duration // open loops: freshness samples are grouped per window
	handle    chan *idea.Feed

	// Results, read after the feed has finished.
	started     time.Time
	emitted     int
	fresh       []int64 // ns from due (or emit) time to first readable poll
	freshTraced []bool  // whether the tracer was on when the sample was due
	freshWin    []int   // window of each sample's due time
	late        []int64 // ns the generator ran behind its schedule
	emitNs      int64   // time spent inside emit (traced runs)
	runNs       int64   // time spent inside Run
	bufMax      int
	pending     []sample
}

type sample struct {
	id     int64
	due    time.Time
	traced bool
	win    int
}

func newSource(c *idea.Cluster, dataset string, recs tweets, rate float64, every int, tracer *Tracer) *source {
	return &source{c: c, dataset: dataset, recs: recs, rate: rate, every: every,
		tracer: tracer, handle: make(chan *idea.Feed, 1), stop: make(chan struct{})}
}

// Run implements idea.FeedSource.
func (s *source) Run(ctx context.Context, emit func([]byte) error) error {
	feed := <-s.handle
	s.started = time.Now()
	defer func() { s.runNs = time.Since(s.started).Nanoseconds() }()
	start := s.started
	lastSweep, lastStats := start, start
	nextUpd := 0
	for i := range s.recs.raw {
		if s.toggle > 0 && s.tracer != nil {
			s.tracer.SetEnabled((time.Since(start)/s.toggle)%2 == 1)
		}
		traced := s.tracer.Enabled()
		due := time.Now() // closed loop: a record is due when it is emitted
		if s.rate > 0 {
			due = start.Add(time.Duration(float64(i) / s.rate * float64(time.Second)))
			for {
				now := time.Now()
				if s.updates != nil {
					nextUpd = s.applyUpdates(ctx, start, now, nextUpd)
				}
				if !now.Before(due) {
					s.late = append(s.late, now.Sub(due).Nanoseconds())
					break
				}
				if now.Sub(lastSweep) >= sweepEvery {
					lastSweep = now
					s.sweep(now)
				}
				if now.Sub(lastStats) >= statsEvery {
					lastStats = now
					s.sampleStats(feed)
				}
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-s.stop:
					return nil
				default:
				}
				if wait := due.Sub(time.Now()); wait > 50*time.Microsecond {
					time.Sleep(min(wait, sweepEvery) - 20*time.Microsecond)
				}
			}
		}
		id := s.recs.base + int64(i)
		sampled := i%s.every == 0
		if traced {
			t0 := time.Now()
			err := emit(s.recs.raw[i])
			t1 := time.Now()
			s.emitNs += t1.Sub(t0).Nanoseconds()
			if sampled {
				s.tracer.Record(0, 0, "core", "emit", t0, t1)
			}
			if err != nil {
				return err
			}
		} else if err := emit(s.recs.raw[i]); err != nil {
			return err
		}
		s.emitted++
		if sampled {
			win := 0
			if s.window > 0 {
				win = int(due.Sub(start) / s.window)
			}
			s.pending = append(s.pending, sample{id: id, due: due, traced: traced, win: win})
		}
		if s.rate == 0 {
			if now := time.Now(); now.Sub(lastSweep) >= sweepEvery {
				if late := now.Sub(lastSweep) - sweepEvery; i > 0 {
					s.late = append(s.late, late.Nanoseconds())
				}
				lastSweep = now
				s.sweep(now)
				if now.Sub(lastStats) >= statsEvery {
					lastStats = now
					s.sampleStats(feed)
				}
			}
		}
	}
	s.sampleStats(feed)
	return nil
}

// applyUpdates sends every reference upsert due by now.
func (s *source) applyUpdates(ctx context.Context, start, now time.Time, next int) int {
	u := s.updates
	for next < len(u.docs) {
		due := start.Add(time.Duration(float64(next) / u.rate * float64(time.Second)))
		if now.Before(due) {
			break
		}
		doc := u.docs[next]
		t0 := time.Now()
		_, err := s.c.Execute(ctx, `UPSERT INTO SafetyRatings ($r);`, idea.Named("r", doc))
		t1 := time.Now()
		s.tracer.Record(0, 0, "lsm", "update.Upsert", t0, t1)
		u.latNs = append(u.latNs, t1.Sub(t0).Nanoseconds())
		u.sent++
		if err != nil {
			u.errors++
		} else {
			u.applied(next)
		}
		next++
	}
	return next
}

// sweep polls every outstanding sample once and keeps those not yet
// readable.
func (s *source) sweep(now time.Time) {
	kept := s.pending[:0]
	for _, p := range s.pending {
		if s.readable(p.id) {
			s.fresh = append(s.fresh, now.Sub(p.due).Nanoseconds())
			s.freshTraced = append(s.freshTraced, p.traced)
			s.freshWin = append(s.freshWin, p.win)
			continue
		}
		kept = append(kept, p)
	}
	s.pending = kept
}

func (s *source) readable(id int64) bool {
	t0 := time.Now()
	rec, found, err := s.c.Get(s.dataset, idea.Int64(id))
	s.tracer.Record(0, 0, "lsm", "freshness.Get", t0, time.Now())
	if err != nil || !found {
		return false
	}
	return s.needField == "" || !rec.Field(s.needField).IsMissing()
}

func (s *source) sampleStats(feed *idea.Feed) {
	t0 := time.Now()
	st, err := feed.Stats()
	s.tracer.Record(0, 0, "core", "Feed.Stats", t0, time.Now())
	if err != nil {
		return
	}
	s.bufMax = max(s.bufMax, st.BufferedFrames)
}

// windows groups the freshness samples (in ms) by window, keeping
// those recorded with tracing on or off as traced says.
func (s *source) windows(traced bool) [][]float64 {
	var out [][]float64
	for i, ns := range s.fresh {
		if s.freshTraced[i] != traced {
			continue
		}
		for len(out) <= s.freshWin[i] {
			out = append(out, nil)
		}
		out[s.freshWin[i]] = append(out[s.freshWin[i]], float64(ns)/1e6)
	}
	return out
}

// finish sweeps the samples still outstanding after the feed has
// drained; every one must be readable by now.
func (s *source) finish() error {
	s.sweep(time.Now())
	if len(s.pending) > 0 {
		return fmt.Errorf("%d sampled records never became readable", len(s.pending))
	}
	return nil
}
