package fleet

import "repro/internal/bitvec"

// Quorum and divergence primitives of the replication algorithm: the
// vote merge behind Dispatcher.ScoreBatch, and the chunk partition and
// chunk digest every divergence summary uses — in process, on a
// cluster node, and in the coordinator's repair plan alike.

// ResolveVotes merges quorum members' per-query answers into final
// classes and confidences. votes[m][i] / confs[m][i] are member m's
// class and confidence for query i; all members answer every query.
//
// A query every member agrees on is answered directly, with the
// highest confidence any member reported. The first disagreement
// invokes full() — lazily, at most once — to obtain the complete
// active voter set, and every disagreeing query is settled by
// MajorityVote over it. The returned bool reports whether escalation
// happened.
func ResolveVotes(votes [][]int, confs [][]float64, full func() ([][]int, [][]float64, error)) ([]int, []float64, bool, error) {
	if len(votes) == 0 {
		return nil, nil, false, ErrNoReplicas
	}
	n := len(votes[0])
	classes := make([]int, n)
	out := make([]float64, n)
	var fullVotes [][]int
	var fullConfs [][]float64
	escalated := false
	for i := 0; i < n; i++ {
		agreed := true
		for m := 1; m < len(votes); m++ {
			if votes[m][i] != votes[0][i] {
				agreed = false
				break
			}
		}
		if agreed {
			classes[i] = votes[0][i]
			out[i] = MaxConfAt(confs, i)
			continue
		}
		if fullVotes == nil {
			escalated = true
			var err error
			fullVotes, fullConfs, err = full()
			if err != nil {
				return nil, nil, true, err
			}
		}
		classes[i], out[i] = MajorityVote(fullVotes, fullConfs, i)
	}
	return classes, out, escalated, nil
}

// MaxConfAt returns the highest confidence any voter reported for
// query i.
func MaxConfAt(confs [][]float64, i int) float64 {
	best := 0.0
	for _, c := range confs {
		if c[i] > best {
			best = c[i]
		}
	}
	return best
}

// MajorityVote tallies the voters' classes for query i. The winner is
// the class with the most votes; ties break toward the higher summed
// confidence, then the lower class id (fully deterministic). The
// returned confidence is the highest any voter gave the winner.
func MajorityVote(votes [][]int, confs [][]float64, i int) (int, float64) {
	count := map[int]int{}
	confSum := map[int]float64{}
	confMax := map[int]float64{}
	for vi := range votes {
		c := votes[vi][i]
		count[c]++
		confSum[c] += confs[vi][i]
		if confs[vi][i] > confMax[c] {
			confMax[c] = confs[vi][i]
		}
	}
	best, bestN := -1, -1
	for c, n := range count {
		switch {
		case n > bestN,
			n == bestN && confSum[c] > confSum[best],
			n == bestN && confSum[c] == confSum[best] && c < best:
			best, bestN = c, n
		}
	}
	return best, confMax[best]
}

// ChunkBounds returns the bit range [lo, hi) of chunk k when dims bits
// are split into `chunks` near-equal pieces. Every member's summary
// and every repair plan must partition identically, or "the same
// chunk" would mean different bits on each side of the wire.
func ChunkBounds(dims, chunks, k int) (lo, hi int) {
	return k * dims / chunks, (k + 1) * dims / chunks
}

// ChunkHash digests bits [lo, hi) of v for divergence summaries:
// FNV-1a over the little-endian bytes of the slice width (so ranges of
// different lengths never collide trivially), then of each 64-bit word
// of the slice as v.Slice(lo, hi) packs it. The words are read in
// place, so summarizing a model allocates nothing. Two chunks with
// equal hashes are treated as identical by anti-entropy; at 64 bits, a
// false match is beyond the lifetime event count of any deployment.
func ChunkHash(v *bitvec.Vector, lo, hi int) uint64 {
	h := fnvWord(fnvOffset64, uint64(hi-lo))
	words := v.Words()
	s := uint(lo % 64)
	for pos := lo; pos < hi; pos += 64 {
		j := pos / 64
		w := words[j] >> s
		if s != 0 && j+1 < len(words) {
			w |= words[j+1] << (64 - s)
		}
		if n := hi - pos; n < 64 {
			w &= 1<<uint(n) - 1
		}
		h = fnvWord(h, w)
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds the eight little-endian bytes of w into FNV-1a state h.
func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime64
		w >>= 8
	}
	return h
}
