package container

import (
	"sync"
	"testing"
	"time"
)

func TestLimitsValidate(t *testing.T) {
	good := []Limits{
		{},
		{MemoryBytes: 10 << 30, NetworkBytesPerSec: 500 << 20},
	}
	for _, l := range good {
		if err := l.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", l, err)
		}
	}
	bad := []Limits{
		{MemoryBytes: -1},
		{NetworkBytesPerSec: -1},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("%+v accepted", l)
		}
	}
}

func TestNewThrottleRejectsNonPositive(t *testing.T) {
	for _, r := range []int64{0, -5} {
		if _, err := NewThrottle(r); err == nil {
			t.Errorf("rate %d accepted", r)
		}
	}
}

func TestNilThrottleUnlimited(t *testing.T) {
	var th *Throttle
	if err := th.Take(1 << 30); err != nil {
		t.Fatal(err)
	}
	th.Close() // must not panic
	if th.Rate() != 0 {
		t.Fatal("nil throttle rate not 0")
	}
}

// fakeClock drives a throttle deterministically.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newFakeThrottle(t *testing.T, rate int64) (*Throttle, *fakeClock) {
	t.Helper()
	th, err := NewThrottle(rate)
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{now: time.Unix(1000, 0)}
	th.now = clk.Now
	th.sleep = clk.Sleep
	th.last = clk.now
	return th, clk
}

func TestThrottleBurstThenPace(t *testing.T) {
	th, clk := newFakeThrottle(t, 1<<20) // 1 MiB/s, burst 1 MiB
	start := clk.Now()
	if err := th.Take(1 << 20); err != nil { // burst: immediate
		t.Fatal(err)
	}
	if clk.Now().Sub(start) != 0 {
		t.Fatalf("burst take advanced clock by %v", clk.Now().Sub(start))
	}
	if err := th.Take(2 << 20); err != nil { // must wait ~2s
		t.Fatal(err)
	}
	elapsed := clk.Now().Sub(start)
	if elapsed < 1900*time.Millisecond || elapsed > 2200*time.Millisecond {
		t.Fatalf("2 MiB at 1 MiB/s took %v, want ~2s", elapsed)
	}
}

func TestThrottleLargerThanBurst(t *testing.T) {
	th, clk := newFakeThrottle(t, 100<<10) // 100 KiB/s, burst floor 64 KiB... rate<64KiB so burst=100KiB? no: burst=max(rate,64KiB)=100KiB
	start := clk.Now()
	if err := th.Take(1 << 20); err != nil { // 1 MiB at 100 KiB/s ~ 10.24s
		t.Fatal(err)
	}
	elapsed := clk.Now().Sub(start).Seconds()
	if elapsed < 8 || elapsed > 12 {
		t.Fatalf("took %.1fs, want ~9.2s", elapsed)
	}
}

func TestThrottleRefillCapped(t *testing.T) {
	th, clk := newFakeThrottle(t, 1<<20)
	clk.Sleep(time.Hour) // long idle must not accumulate more than one burst
	start := clk.Now()
	th.Take(1 << 20)
	if d := clk.Now().Sub(start); d != 0 {
		t.Fatalf("one burst after idle should be free, waited %v", d)
	}
	th.Take(1 << 20)
	if d := clk.Now().Sub(start); d < 900*time.Millisecond {
		t.Fatalf("second burst should wait ~1s, waited %v", d)
	}
}

func TestThrottleClose(t *testing.T) {
	th, err := NewThrottle(1) // 1 B/s: Take will block (real clock)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- th.Take(10 << 20) }()
	time.Sleep(10 * time.Millisecond)
	th.Close()
	select {
	case err := <-done:
		if err != ErrThrottleClosed {
			t.Fatalf("want ErrThrottleClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Take did not unblock on Close")
	}
	if err := th.Take(1); err != ErrThrottleClosed {
		t.Fatalf("Take after Close: %v", err)
	}
}

func TestThrottleRate(t *testing.T) {
	th, err := NewThrottle(12345)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	if th.Rate() != 12345 {
		t.Fatalf("Rate = %d", th.Rate())
	}
}

func TestThrottleSetRateValidation(t *testing.T) {
	var nilTh *Throttle
	if err := nilTh.SetRate(1 << 20); err == nil {
		t.Fatal("SetRate on nil throttle accepted")
	}
	th, err := NewThrottle(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int64{0, -5} {
		if err := th.SetRate(r); err == nil {
			t.Fatalf("SetRate(%d) accepted", r)
		}
	}
	if err := th.SetRate(2 << 20); err != nil {
		t.Fatal(err)
	}
	if th.Rate() != 2<<20 {
		t.Fatalf("Rate after SetRate = %d, want %d", th.Rate(), 2<<20)
	}
	th.Close()
	if err := th.SetRate(1 << 20); err != ErrThrottleClosed {
		t.Fatalf("SetRate after Close: %v, want ErrThrottleClosed", err)
	}
}

// TestThrottleResizeWhileBlocked is the regression test for runtime
// NetworkBytesPerSec resize: a waiter that went to sleep under the old rate
// must observe the new rate on wake-up, not the snapshot it slept on.
func TestThrottleResizeWhileBlocked(t *testing.T) {
	// Raise: a Take that would need ~16s at the old rate must finish in
	// about 1s once the rate is multiplied by 16 mid-wait.
	th, err := NewThrottle(64 << 10) // 64 KiB/s, burst 64 KiB
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- th.Take(1 << 20) }() // 1 MiB: ~16s at 64 KiB/s
	time.Sleep(20 * time.Millisecond)        // let the waiter block
	if err := th.SetRate(1 << 20); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still paced at the pre-resize rate")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("1 MiB after raise to 1 MiB/s took %v, want ~1s", d)
	}

	// Shrink below the blocked request's original chunk size: the waiter's
	// installment must be re-clamped to the new burst or it waits forever
	// for a token count the bucket can no longer hold.
	th2, clk := newFakeThrottle(t, 8<<20) // burst 8 MiB
	defer th2.Close()
	th2.tokens = 0 // force the first chunk (8 MiB) to block
	blocked := make(chan error, 1)
	go func() { blocked <- th2.Take(8 << 20) }()
	time.Sleep(20 * time.Millisecond)
	if err := th2.SetRate(1 << 20); err != nil { // burst now 1 MiB < pending 8 MiB chunk
		t.Fatal(err)
	}
	// Advance the fake clock far enough to refill 8 MiB at 1 MiB/s many
	// times over; only a re-clamped waiter can drain it in 1 MiB chunks.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case err := <-blocked:
			if err != nil {
				t.Fatal(err)
			}
			return
		case <-deadline:
			t.Fatal("waiter stuck asking for a chunk larger than the post-shrink burst")
		default:
			clk.Sleep(time.Second)
			time.Sleep(time.Millisecond)
		}
	}
}

func TestThrottleConcurrentTakers(t *testing.T) {
	th, err := NewThrottle(100 << 20) // fast enough to finish quickly for real
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := th.Take(4 << 10); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
