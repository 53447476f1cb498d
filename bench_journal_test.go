// Tamper-evident journal benchmarks: the hash-chained append on the
// hot fleet-event path, the Merkle seal amortized over its batch, and
// inclusion-proof generation over a long sealed log. CI's bench job
// runs them into its BENCH.json artifact.
package repro_test

import (
	"io"
	"testing"

	"repro/internal/fleet"
)

// benchEvent is a representative repair event — the kind the
// anti-entropy sweep emits in bursts.
func benchEvent(i int) fleet.Event {
	return fleet.Event{
		Kind:    fleet.EventRepair,
		Replica: i % 3,
		Class:   i % 12,
		Chunk:   i % 64,
		Bits:    128,
	}
}

// BenchmarkJournalAppend measures one chained append with sealing off:
// the pure per-event cost of SHA-256 linking plus JSON encoding.
func BenchmarkJournalAppend(b *testing.B) {
	j := fleet.NewJournal(io.Discard)
	j.SetSealBatch(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := j.Append(benchEvent(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalAppendSealed is the production configuration: the
// default batch size, so every 64th append also builds and writes a
// Merkle seal. The delta against BenchmarkJournalAppend is the
// amortized seal overhead per event.
func BenchmarkJournalAppendSealed(b *testing.B) {
	j := fleet.NewJournal(io.Discard)
	j.SetSealBatch(fleet.DefaultSealBatch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := j.Append(benchEvent(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSealBatch measures one explicit seal over a full default
// batch: hash the pending leaves, fold the tree, append the seal line.
func BenchmarkSealBatch(b *testing.B) {
	j := fleet.NewJournal(io.Discard)
	j.SetSealBatch(0) // seal manually so each iteration is one full batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < fleet.DefaultSealBatch; k++ {
			if err := j.Append(benchEvent(k)); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := j.SealNow(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInclusionProof measures proof generation from a journal
// holding 1024 sealed events: locate the covering seal, rebuild the
// batch's tree, and emit the sibling path.
func BenchmarkInclusionProof(b *testing.B) {
	j := fleet.NewJournal(io.Discard)
	j.SetSealBatch(fleet.DefaultSealBatch)
	for i := 0; i < 1024; i++ {
		if err := j.Append(benchEvent(i)); err != nil {
			b.Fatal(err)
		}
	}
	stats := j.Stats()
	if stats.SealedSeq == 0 {
		b.Fatal("bench journal never sealed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := int64(i%int(stats.SealedSeq)) + 1
		p, err := j.Proof(seq)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}
