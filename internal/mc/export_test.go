package mc

import (
	"context"
	"fmt"

	"mpsram/internal/stats"
)

// RecordCountRule re-states, independently of decodeRecord, what every
// decoded record must satisfy: each Welford, both ControlVariate halves
// and each P² sketch count exactly the block's accepted trials, each
// sketch targets its slot's quantile, and a collect record carries Nobs
// values per accepted trial (other records none). The payload fuzz
// target holds every accepted payload to it.
func RecordCountRule(p *ShardPayload) error {
	slots := [3]float64{0.05, 0.5, 0.95}
	for s, ps := range p.streams {
		h := ps.header
		for _, rec := range ps.recs {
			lo, hi := blockBounds(rec.Block, h.Samples)
			accepted := hi - lo - rec.Rejected
			if accepted < 0 {
				return fmt.Errorf("stream %d block %d: %d rejects of %d trials", s, rec.Block, rec.Rejected, hi-lo)
			}
			var counts []int
			for _, w := range rec.Agg {
				counts = append(counts, w.N())
			}
			for _, c := range rec.CV {
				y, x := c.Primary(), c.Control()
				counts = append(counts, y.N(), x.N())
			}
			for _, q := range rec.Quant {
				for k, e := range [3]stats.P2{q.P05, q.Median, q.P95} {
					counts = append(counts, e.N())
					if e.P() != slots[k] {
						return fmt.Errorf("stream %d block %d: sketch slot %d targets p=%g", s, rec.Block, k, e.P())
					}
				}
			}
			for _, n := range counts {
				if n != accepted {
					return fmt.Errorf("stream %d block %d: an accumulator counts %d, the block accepted %d", s, rec.Block, n, accepted)
				}
			}
			want := 0
			if h.Kind == streamPlain && h.Collect {
				want = h.Nobs * accepted
			}
			if len(rec.Values) != want {
				return fmt.Errorf("stream %d block %d: %d collected values, want %d", s, rec.Block, len(rec.Values), want)
			}
		}
	}
	return nil
}

// FoldPayload runs every stream of p through the reducer's block-order
// fold — the merge a replayed stream feeds — whether or not p completes
// its stream. The payload fuzz target folds every accepted payload, so
// "decodes" implies "merges".
func FoldPayload(p *ShardPayload) {
	for _, ps := range p.streams {
		if ps.header.Kind == streamPaired {
			foldPaired(ps.recs, ps.header.Nobs)
		} else {
			foldPlain(ps.recs, ps.header.Nobs, ps.header.Collect)
		}
	}
}

// ReplayStreams drives every stream of rp through the engine in reduce
// mode, as Reduce's re-executed workload does, then checks that the
// replay was consumed whole.
func ReplayStreams(rp *Replay) error {
	for _, st := range rp.streams {
		h := st.header
		cfg := Config{Samples: h.Samples, Seed: h.Seed, Collect: h.Collect, Replay: rp}
		var err error
		if h.Kind == streamPaired {
			_, err = RunVectorPaired(context.Background(), cfg, h.Nobs, nil)
		} else {
			_, err = RunVectorState(context.Background(), cfg, h.Nobs, nil)
		}
		if err != nil {
			return err
		}
	}
	return rp.Done()
}
