package main

import (
	"math"
	"math/cmplx"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The machine-speed sampler. On a shared machine the speed of the same
// code wanders by up to 2× over minutes, and by tens of percent from one
// request to the next, as other tenants come and go; the ratio of two
// pieces of work run at the same moment holds steady. So while the timed
// pass runs, a goroutine times a fixed, bench-owned piece of work (the
// reference) every samplePeriod, and every time the pass measures is
// scaled by sampleNominal over the reference's time during that interval:
// the time it would take on a machine that runs the reference in exactly
// sampleNominal. At GOMAXPROCS=1 the sampler shares the one processor with
// the program, so it runs when the scheduler preempts the program (every
// 10 ms or so) and its samples fall inside the requests they describe;
// the time it takes is subtracted from every interval it lands in.
//
// The reference uses no code of the program, so a change to the program
// cannot move it, and it resembles the program's own mix: dense complex LU
// on a cache-resident matrix, and text scanning with number parsing. It
// allocates nothing, so it neither causes nor pays for collections. Each
// sample runs it twice and times the second run, so the caches the
// program just used do not slow the timed one.

// sampleNominal is about the reference's time on a quiet shared 2-vCPU
// Linux VM (Go 1.24), so normalized times read as times on that machine
// when nothing else runs on it.
const sampleNominal = 75 * time.Microsecond

// samplePeriod is the sampler's tick; while the program computes, the
// scheduler's preemption, not the tick, sets how often it runs.
const samplePeriod = 5 * time.Millisecond

// minSamples is the least number of samples behind a speed factor: an
// interval holding fewer is widened to its nearest neighbours.
const minSamples = 5

// refN is the order of the reference's complex matrix.
const refN = 40

// reference is the preallocated state of the reference work.
type reference struct {
	a0, a []complex128
	text  string
	sink  float64
}

func newReference() *reference {
	r := &reference{a0: make([]complex128, refN*refN), a: make([]complex128, refN*refN)}
	// A fixed, well-conditioned, diagonally dominant complex matrix.
	for i := 0; i < refN; i++ {
		for j := 0; j < refN; j++ {
			x := float64((i*7+j*13)%17) / 17
			y := float64((i*11+j*5)%19) / 19
			r.a0[i*refN+j] = complex(x-0.5, y-0.5)
		}
		r.a0[i*refN+i] += complex(float64(refN), 1)
	}
	// A fixed netlist-like text of element cards.
	var text []byte
	for i := 0; i < 400; i++ {
		text = append(text, 'r')
		text = strconv.AppendInt(text, int64(i), 10)
		text = append(text, " n1 n2 "...)
		text = strconv.AppendFloat(text, 1e3*float64(i%97+1)/7, 'g', -1, 64)
		text = append(text, '\n')
	}
	r.text = string(text)
	return r
}

// run does the reference work once.
func (r *reference) run() { r.sink += r.lu() + r.scan() }

// lu factors a copy of the reference matrix with partial pivoting and
// returns the log of its determinant's modulus, so the work is not dead.
func (r *reference) lu() float64 {
	a := r.a
	copy(a, r.a0)
	logdet := 0.0
	for k := 0; k < refN; k++ {
		p, best := k, cmplx.Abs(a[k*refN+k])
		for i := k + 1; i < refN; i++ {
			if v := cmplx.Abs(a[i*refN+k]); v > best {
				p, best = i, v
			}
		}
		if p != k {
			for j := 0; j < refN; j++ {
				a[k*refN+j], a[p*refN+j] = a[p*refN+j], a[k*refN+j]
			}
		}
		inv := 1 / a[k*refN+k]
		logdet += math.Log(best)
		for i := k + 1; i < refN; i++ {
			f := a[i*refN+k] * inv
			a[i*refN+k] = f
			row, piv := a[i*refN+k+1:i*refN+refN], a[k*refN+k+1:k*refN+refN]
			for j := range row {
				row[j] -= f * piv[j]
			}
		}
	}
	return logdet
}

// scan splits the reference text into lines and parses each card's value.
func (r *reference) scan() float64 {
	sum := 0.0
	text := r.text
	for len(text) > 0 {
		end := 0
		for end < len(text) && text[end] != '\n' {
			end++
		}
		line := text[:end]
		last := len(line)
		for last > 0 && line[last-1] != ' ' {
			last--
		}
		if v, err := strconv.ParseFloat(line[last:], 64); err == nil {
			sum += v
		}
		if end < len(text) {
			end++
		}
		text = text[end:]
	}
	return sum
}

// sampler times the reference every samplePeriod until closed. Its
// samples are read only after close returns.
type sampler struct {
	epoch time.Time
	at    []time.Duration // each sample's start, from epoch
	busy  []time.Duration // each sample's whole time on the processor
	took  []time.Duration // each sample's timed reference run
	stop  chan struct{}
	once  sync.Once
	done  chan struct{}
}

// sampleCapacity is the sample count the sampler's records hold without
// growing: a minute of samples at the tick.
const sampleCapacity = int(time.Minute / samplePeriod)

func startSampler() *sampler {
	s := &sampler{epoch: time.Now(), stop: make(chan struct{}), done: make(chan struct{}),
		at:   make([]time.Duration, 0, sampleCapacity),
		busy: make([]time.Duration, 0, sampleCapacity),
		took: make([]time.Duration, 0, sampleCapacity)}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.done)
	r := newReference()
	tick := time.NewTicker(samplePeriod)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		t0 := time.Now()
		r.run()
		t1 := time.Now()
		r.run()
		t2 := time.Now()
		s.at = append(s.at, t0.Sub(s.epoch))
		s.busy = append(s.busy, t2.Sub(t0))
		s.took = append(s.took, t2.Sub(t1))
	}
}

// close stops the sampler and waits until it has ended; it may be called
// more than once.
func (s *sampler) close() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// now is the current time as an interval bound.
func (s *sampler) now() time.Duration { return time.Since(s.epoch) }

// over returns the speed factor of the interval [from, to), sampleNominal
// over the median reference time of the samples in it (widened to at
// least minSamples), and the sampler's own time inside the interval. The
// median keeps a collection or a preemption that lands in one sample from
// moving the factor.
func (s *sampler) over(from, to time.Duration) (factor float64, stolen time.Duration) {
	lo := sort.Search(len(s.at), func(i int) bool { return s.at[i] >= from })
	hi := sort.Search(len(s.at), func(i int) bool { return s.at[i] >= to })
	for _, b := range s.busy[lo:hi] {
		stolen += b
	}
	for hi-lo < minSamples && (lo > 0 || hi < len(s.at)) {
		if lo > 0 && (hi == len(s.at) || from-s.at[lo-1] <= s.at[hi]-to) {
			lo--
		} else {
			hi++
		}
	}
	xs := make([]float64, hi-lo)
	for i, d := range s.took[lo:hi] {
		xs[i] = float64(d)
	}
	return float64(sampleNominal) / median(xs), stolen
}
