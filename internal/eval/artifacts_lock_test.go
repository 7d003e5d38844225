package eval

import (
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/xrand"
)

// The Ensure* cross-process guard: many contenders sharing one artifact
// directory must produce exactly one training run, with everyone else
// warm-starting from the winner's artifact. The contenders here are
// goroutines each holding its OWN ModelStore handle — the lock file is
// the only coordination, exactly as between separate worker processes.

// fillParams deterministically "trains" a detector: every parameter gets
// a value derived from its position, so any two trained nets are
// bit-identical and distinguishable from an untrained one.
func fillParams(d *detect.Detector) {
	for i, p := range d.Net.Params() {
		data := p.Value.Data()
		for j := range data {
			data[j] = float32(i+1) * float32(j%17+1) * 0.001
		}
	}
}

func TestEnsureTrainsExactlyOnceAcrossStores(t *testing.T) {
	dir := t.TempDir()
	p := Micro()

	const contenders = 6
	var trained atomic.Int32
	nets := make([]*detect.Detector, contenders)
	var wg sync.WaitGroup
	errs := make([]error, contenders)
	for g := 0; g < contenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			store, err := NewModelStore(dir) // one handle per "process"
			if err != nil {
				errs[g] = err
				return
			}
			store.lockPoll = 2 * time.Millisecond
			d := detect.New(xrand.New(int64(100+g)), 64)
			nets[g] = d
			_, errs[g] = store.EnsureDetector(d, p, func() error {
				trained.Add(1)
				time.Sleep(10 * time.Millisecond) // widen the race window
				fillParams(d)
				return nil
			}, nil)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("contender %d: %v", g, err)
		}
	}
	if n := trained.Load(); n != 1 {
		t.Fatalf("train ran %d times, want exactly 1", n)
	}
	// Every contender — trainer and warm-starters alike — ends bit-identical.
	want := detect.New(xrand.New(999), 64)
	fillParams(want)
	for g := 0; g < contenders; g++ {
		assertSameParams(t, "contender", nets[g].Net.Params(), want.Net.Params())
	}
	// The lock is gone; the artifact remains.
	store, _ := NewModelStore(dir)
	if _, err := os.Stat(store.lockPath(store.DetectorKey(p))); !os.IsNotExist(err) {
		t.Fatalf("train lock left behind: %v", err)
	}
	if warm, err := store.LoadDetector(detect.New(xrand.New(3), 64), p); err != nil || !warm {
		t.Fatalf("artifact missing after ensure: warm=%v err=%v", warm, err)
	}
}

func TestEnsureStealsLockOfDeadOwner(t *testing.T) {
	dir := t.TempDir()
	store, err := NewModelStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.lockPoll = 2 * time.Millisecond
	p := Micro()
	key := store.DetectorKey(p)

	// Manufacture a genuinely dead pid: run a short-lived child and wait
	// for it. Pid reuse within this test's lifetime is not a realistic
	// hazard (Linux allocates pids sequentially).
	cmd := exec.Command("/bin/true")
	if err := cmd.Run(); err != nil {
		t.Skipf("cannot spawn probe process: %v", err)
	}
	deadPid := cmd.Process.Pid
	lock := store.lockPath(key)
	if err := os.WriteFile(lock, []byte(strconv.Itoa(deadPid)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	d := detect.New(xrand.New(1), 64)
	var ran atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := store.EnsureDetector(d, p, func() error { ran.Store(true); fillParams(d); return nil }, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ensure wedged behind a dead owner's lock")
	}
	if !ran.Load() {
		t.Fatal("ensure never trained after stealing the stale lock")
	}
}

func TestLockStaleness(t *testing.T) {
	store, err := NewModelStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := Micro()
	key := store.DetectorKey(p)
	lock := store.lockPath(key)

	// Our own pid: never stale (we ARE the owner).
	if ok, err := store.acquireTrainLock(key); err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	if store.lockIsStale(key) {
		t.Fatal("own live lock reported stale")
	}
	// Second acquire must lose while the lock exists.
	if ok, _ := store.acquireTrainLock(key); ok {
		t.Fatal("second acquire won while lock held")
	}
	store.releaseTrainLock(key)
	if ok, err := store.acquireTrainLock(key); err != nil || !ok {
		t.Fatalf("re-acquire after release: ok=%v err=%v", ok, err)
	}
	store.releaseTrainLock(key)

	// Unparseable pid: stale only once the age backstop passes.
	if err := os.WriteFile(lock, []byte("not-a-pid\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if store.lockIsStale(key) {
		t.Fatal("fresh unparseable lock reported stale")
	}
	old := time.Now().Add(-lockStaleAge - time.Minute)
	if err := os.Chtimes(lock, old, old); err != nil {
		t.Fatal(err)
	}
	if !store.lockIsStale(key) {
		t.Fatal("aged unparseable lock not reported stale")
	}
	os.Remove(lock)

	// A live foreign process (pid 1 is always alive): not stale, even old.
	if err := os.WriteFile(lock, []byte("1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(lock, old, old); err != nil {
		t.Fatal(err)
	}
	if store.lockIsStale(key) {
		t.Fatal("lock of a live process reported stale")
	}
}

func TestEnsureWaiterLogsAndWarms(t *testing.T) {
	dir := t.TempDir()
	p := Micro()

	holder, err := NewModelStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	holder.lockPoll = 2 * time.Millisecond
	waiter, err := NewModelStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	waiter.lockPoll = 2 * time.Millisecond

	key := holder.DetectorKey(p)
	if ok, err := holder.acquireTrainLock(key); err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}

	logf, logged := collectLogf()
	d := detect.New(xrand.New(7), 64)
	done := make(chan error, 1)
	go func() {
		_, err := waiter.EnsureDetector(d, p, func() error {
			t.Error("waiter trained despite the holder saving an artifact")
			return nil
		}, logf)
		done <- err
	}()

	// Give the waiter time to hit the lock, then publish the artifact and
	// release — it must warm-start without training.
	time.Sleep(20 * time.Millisecond)
	trained := detect.New(xrand.New(8), 64)
	fillParams(trained)
	if err := holder.SaveDetector(trained, p); err != nil {
		t.Fatal(err)
	}
	holder.releaseTrainLock(key)

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter never returned")
	}
	assertSameParams(t, "waiter", d.Net.Params(), trained.Net.Params())
	if !strings.Contains(logged(), "being trained by another process") {
		t.Fatalf("waiter log lacks the lock-wait line:\n%s", logged())
	}
}
