package main

import (
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The reference VM's host changes the vCPUs' speed from second to
// second, with no steal booked: a fixed single-threaded computation
// takes 13 ms of thread CPU time in one second and 22 ms in the next,
// and the same build's CPU time per request drifted by 40% across five
// consecutive runs. A run therefore reads the host's pace between short
// chunks of its phases, by timing a fixed reference task that uses none
// of the repository's code, and reports each chunk's times at the
// reference pace: measured time x refNominal / the reference task's
// time around the chunk. A change to the program moves the reported
// times in full; a change of the host's speed moves the reference task
// as well and cancels.

// refRuns is how many times one reading of the pace runs the reference
// task, and refNominal their process CPU time on the 2-CPU reference
// host at its faster pace, with GOMAXPROCS 1; reported times read as
// times at that pace.
const (
	refRuns    = 8
	refNominal = 9 * time.Millisecond
)

// Sizes of one run of the reference task: dependent loads in its 16 MB
// table, which the processor's caches cannot hold, and round trips
// through its loopback TCP echo.
const (
	refHops       = 1000
	refRoundTrips = 50
)

// paceChunk is how long a phase runs between two readings of the pace.
const paceChunk = 200 * time.Millisecond

// refTask is the reference task: a floating-point lattice recurrence
// like the exact solvers' fills, a sort, map updates, dependent loads
// from a table larger than the caches, and round trips to a goroutine
// that echoes over loopback TCP, as a request's bytes travel; on
// buffers allocated once so that no garbage collection lands inside it.
type refTask struct {
	prev, row []float64
	src, xs   []float64
	keys      []string
	m         map[string]int
	ring      []uint32 // a random cycle through a table larger than the caches
	at        uint32
	conn      net.Conn // to the echo goroutine
	buf       []byte
	sink      float64
}

var (
	refOnce   sync.Once
	sharedRef *refTask
	refErr    error
)

// theRefTask returns the process's reference task, built on first use.
// Its echo connection lives as long as the process.
func theRefTask() (*refTask, error) {
	refOnce.Do(func() { sharedRef, refErr = newRefTask() })
	return sharedRef, refErr
}

func newRefTask() (*refTask, error) {
	const n, sorted, keys, ring = 96, 2048, 512, 1 << 22
	r := &refTask{
		prev: make([]float64, n+1), row: make([]float64, n+1),
		src: make([]float64, sorted), xs: make([]float64, sorted),
		m: make(map[string]int, keys), ring: untracked(ring), buf: make([]byte, 512),
	}
	s := uint64(1)
	next := func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s >> 11
	}
	for i := range r.src {
		r.src[i] = float64(next())
	}
	// Sattolo's shuffle: one cycle through every slot.
	for i := range r.ring {
		r.ring[i] = uint32(i)
	}
	for i := len(r.ring) - 1; i > 0; i-- {
		j := int(next() % uint64(i))
		r.ring[i], r.ring[j] = r.ring[j], r.ring[i]
	}
	for i := 0; i < keys; i++ {
		r.keys = append(r.keys, "key-"+strconv.Itoa(i))
		r.m[r.keys[i]] = 0
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference task: %w", err)
	}
	accepted := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		ln.Close() //lint:allow errcheck one connection is all the echo serves
		accepted <- err
		if err == nil {
			echoLoop(c)
		}
	}()
	if r.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close() //lint:allow errcheck unwinding; the dial error is the one returned
		return nil, fmt.Errorf("reference task: %w", err)
	}
	if err := <-accepted; err != nil {
		return nil, fmt.Errorf("reference task: %w", err)
	}
	return r, nil
}

// echoLoop writes back whatever it reads until the connection fails.
func echoLoop(c net.Conn) {
	buf := make([]byte, 512)
	for {
		n, err := c.Read(buf)
		if err != nil {
			return
		}
		if _, err := c.Write(buf[:n]); err != nil {
			return
		}
	}
}

// run does the task once.
func (r *refTask) run() error {
	for j := range r.prev {
		r.prev[j] = 1
	}
	for i := 1; i < len(r.prev); i++ {
		r.row[0] = 1
		for j := 1; j < len(r.row); j++ {
			r.row[j] = (r.prev[j]*0.5 + r.row[j-1]*0.25 + r.prev[j-1]*0.125) / (1 + 1e-3*float64(j))
		}
		r.prev, r.row = r.row, r.prev
	}
	copy(r.xs, r.src)
	sort.Float64s(r.xs)
	for i, k := range r.keys {
		r.m[k] += i
	}
	for i := 0; i < refHops; i++ {
		r.at = r.ring[r.at]
	}
	for i := 0; i < refRoundTrips; i++ {
		if _, err := r.conn.Write(r.buf); err != nil {
			return fmt.Errorf("reference task: %w", err)
		}
		if _, err := io.ReadFull(r.conn, r.buf); err != nil {
			return fmt.Errorf("reference task: %w", err)
		}
	}
	r.sink += r.prev[len(r.prev)-1] + r.xs[0] + float64(r.at)
	return nil
}

// pace runs the task refRuns times and returns refNominal over the
// process CPU time they took: above 1 when the host runs slower than at
// the reference pace. Call it with no request in flight and GOMAXPROCS
// 1, so that the process runs nothing else meanwhile.
func (r *refTask) pace() (float64, error) {
	start := processCPU()
	for i := 0; i < refRuns; i++ {
		if err := r.run(); err != nil {
			return 0, err
		}
	}
	return refNominal.Seconds() / (processCPU() - start).Seconds(), nil
}
