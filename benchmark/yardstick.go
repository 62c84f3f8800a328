package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"algrec/benchmark/gen"
)

// The yardstick measures how fast the machine is while a workload runs.
//
// The sandbox's cores are shared with other tenants: the same code on the
// same seed completes 20-30% fewer ops in one quarter of an hour than in the
// next (README, "Steadiness"), in phases of seconds to minutes, so no window
// the run budget allows averages it out, and CPU time moves with wall time —
// it is the speed of the cores and their memory that wanders, not scheduling.
// A bound inside that noise gates nothing. So beside the load the generator
// runs a fixed basket of work of its own every yardstickEvery — pointer
// chasing through memory, building and scanning a hash map, allocating small
// slices: what the service's engines do, in code no change to the service
// can touch — and times it on its thread's CPU clock. Every time-based
// end-to-end metric is reported as it would read at the reference speed:
// multiplied by the interval's machine speed (rates divided). The reading as
// measured is kept beside it (reading.Raw).
const (
	yardstickEvery = 50 * time.Millisecond
	// referenceBasket is the basket's CPU time beside a running workload on
	// this sandbox in its usual state, so that speed 1 leaves the numbers as
	// a user would see them there. Its value scales every workload's numbers
	// alike and cancels in any comparison.
	referenceBasket = 2700 * time.Microsecond
	// serviceSensitivity is how much more steeply the service slows than the
	// basket does: over a hundred runs of the five workloads, throughput as
	// measured fell as the basket's speed to the power 0.9-2.2, 1.5 on
	// average (README, "Steadiness") — two busy threads with a 100 MB heap
	// lose more to a neighbour than one thread with a basket of 16 MB.
	serviceSensitivity = 1.5

	chaseWords  = 4 << 20 // 16 MB of uint32: beyond any cache share
	chaseLoads  = 4000
	mapKeys     = 8000
	allocSlices = 3000
)

var (
	chaseOnce  sync.Once
	chaseCycle []uint32
	basketSink uint64 // keeps the basket's results alive
)

// chase returns one random cycle through chaseWords slots, so that every
// load depends on the one before and lands on a cold line.
func chase() []uint32 {
	chaseOnce.Do(func() {
		a := make([]uint32, chaseWords)
		for i := range a {
			a[i] = uint32(i)
		}
		r := gen.New(1, "yardstick")
		for i := len(a) - 1; i > 0; i-- { // Sattolo: a single cycle
			j := r.Intn(i)
			a[i], a[j] = a[j], a[i]
		}
		chaseCycle = a
	})
	return chaseCycle
}

// threadCPU is the calling thread's CPU time, CLOCK_THREAD_CPUTIME_ID: the
// scheduler's exact figure, where getrusage's is sampled on the timer tick
// and useless over two milliseconds. Time the thread spends preempted by the
// service it shares the cores with does not count; time the host takes from
// the core while the thread is on it does, which is the point.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("benchmark: clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error()) // every Linux has it
	}
	return time.Duration(ts.Nano())
}

// basket runs the fixed work once and returns the CPU time it took. The
// three parts take about as long as each other, so each counts about alike.
func basket(cycle []uint32) time.Duration {
	start := threadCPU()
	sum := basketSink

	p := uint32(sum % chaseWords)
	for i := 0; i < chaseLoads; i++ {
		p = cycle[p]
	}
	sum += uint64(p)

	m := map[uint64]uint64{}
	x := uint64(88172645463325252) + sum%7
	for i := 0; i < mapKeys; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x] = uint64(i)
	}
	for k, v := range m {
		sum += k ^ v
	}

	all := make([][]uint64, 0, 16)
	for i := 0; i < allocSlices; i++ {
		s := make([]uint64, 0, 4)
		for j := 0; j < 24; j++ {
			s = append(s, uint64(i*j))
		}
		all = append(all, s)
	}
	for _, s := range all {
		sum += s[len(s)-1]
	}

	basketSink = sum
	return threadCPU() - start
}

// yardstick runs baskets on a thread of its own until halted.
type yardstick struct {
	mu   sync.Mutex
	cpu  time.Duration // spent on baskets since the last speed call
	n    int           // baskets since the last speed call
	stop chan struct{}
	done chan struct{}
}

func startYardstick() *yardstick {
	y := &yardstick{stop: make(chan struct{}), done: make(chan struct{})}
	cycle := chase()
	go func() {
		defer close(y.done)
		runtime.LockOSThread() // both clock reads of a basket on one thread
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(yardstickEvery)
		defer tick.Stop()
		for {
			select {
			case <-y.stop:
				return
			case <-tick.C:
			}
			d := basket(cycle)
			y.mu.Lock()
			y.cpu += d
			y.n++
			y.mu.Unlock()
		}
	}()
	return y
}

// speed is the machine's speed for the service since the last call (or the
// start), relative to the reference: the basket's speed — referenceBasket
// over the mean basket time, above 1 when baskets ran faster — raised to
// serviceSensitivity. An interval too short for one basket reads 1.
func (y *yardstick) speed() float64 {
	y.mu.Lock()
	defer y.mu.Unlock()
	cpu, n := y.cpu, y.n
	y.cpu, y.n = 0, 0
	if n == 0 {
		return 1
	}
	return math.Pow(float64(referenceBasket)*float64(n)/float64(cpu), serviceSensitivity)
}

// halt stops the baskets and waits for the thread to finish.
func (y *yardstick) halt() {
	close(y.stop)
	<-y.done
}
