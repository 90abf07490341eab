package telemetry

import (
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/native"
)

// TestNativeSinksCompose puts a journal sink, the latency histograms and
// the call-site profiler on one mutex — all teed into its single event
// slot — and checks that each consumer still counts what it counted
// with a slot of its own.
func TestNativeSinksCompose(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(journal.Config{Dir: dir, FlushEvery: time.Hour, ShardCap: 1 << 14, MaxSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	m := native.MustNew(native.CombinedPolicy, native.FIFO)
	m.SetEventSink(j.Sink("composed"))
	ne := NewRegistry().RegisterNative("composed", m).ObserveLatency().Profile(1)

	// Contention: every worker starts while the lock is held.
	const workers, rounds = 6, 40
	m.Lock()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				m.Lock()
				time.Sleep(10 * time.Microsecond)
				m.Unlock()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	m.Unlock()
	wg.Wait()
	// One tenure ends in owner death, which is not a voluntary release.
	m.Lock()
	if err := m.DeclareOwnerDead(); err != nil {
		t.Fatal(err)
	}
	m.Lock()
	m.Unlock()
	voluntary := int64(1 + workers*rounds + 1)

	st := m.Stats()
	snap := ne.Snapshot()
	if st.Contended == 0 {
		t.Fatal("workload produced no contention")
	}
	if got := snap.Wait.Count(); got != st.Contended {
		t.Errorf("wait histogram count = %d, want Contended = %d", got, st.Contended)
	}
	if got := snap.Hold.Count(); got != voluntary {
		t.Errorf("hold histogram count = %d, want %d voluntary releases", got, voluntary)
	}
	if ne.Profiler().Samples() == 0 {
		t.Error("profiler sampled no contended acquisition")
	}

	j.Flush()
	if d := j.Stats().Dropped; d != 0 {
		t.Fatalf("journal dropped %d records", d)
	}
	entries, _, err := journal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var acquires int64
	for _, e := range entries {
		if e.LockName == "composed" && e.Kind == journal.KindAcquire {
			acquires++
		}
	}
	if acquires != st.Acquisitions {
		t.Errorf("journal acquire records = %d, want Acquisitions = %d", acquires, st.Acquisitions)
	}
}
