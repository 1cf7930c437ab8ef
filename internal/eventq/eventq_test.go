package eventq

import "testing"

// checker drives a Queue and a brute-force reference side by side: the
// reference is an unordered slice whose minimum under (Time, Seq) is
// found by a linear scan, so every Pop must return exactly that event.
type checker struct {
	t   testing.TB
	q   Queue[int64]
	ref []Event[int64]
	now int64 // time of the last popped event
	seq int64

	sawShift, sawOverflow bool
}

func (c *checker) init(span int64, width int) {
	c.q.Init(span, width)
	c.ref = c.ref[:0]
	c.now = 0
	if c.q.shift > 0 {
		c.sawShift = true
	}
}

// push enqueues an event dt cycles after the last pop. Sequence numbers
// are unique; odd ones are negated so that equal-time events also
// arrive out of Seq order.
func (c *checker) push(dt int64) {
	c.seq++
	s := c.seq
	if s%2 == 1 {
		s = -s
	}
	c.q.Push(c.now+dt, s, s)
	c.ref = append(c.ref, Event[int64]{Time: c.now + dt, Seq: s, P: s})
	if len(c.q.overflow) > 0 {
		c.sawOverflow = true
	}
	if c.q.Len() != len(c.ref) {
		c.t.Fatalf("Len = %d after push, want %d", c.q.Len(), len(c.ref))
	}
}

func (c *checker) pop() {
	got, ok := c.q.Pop()
	if len(c.ref) == 0 {
		if ok {
			c.t.Fatalf("Pop on empty queue returned %+v", got)
		}
		return
	}
	best := 0
	for i := range c.ref {
		if less(c.ref[i], c.ref[best]) {
			best = i
		}
	}
	want := c.ref[best]
	c.ref = append(c.ref[:best], c.ref[best+1:]...)
	if !ok || got != want {
		c.t.Fatalf("Pop = %+v, %v; want %+v", got, ok, want)
	}
	c.now = got.Time
	if c.q.Len() != len(c.ref) {
		c.t.Fatalf("Len = %d after pop, want %d", c.q.Len(), len(c.ref))
	}
}

func (c *checker) drain() {
	for len(c.ref) > 0 {
		c.pop()
	}
	c.pop()
}

// horizon is the push increment past which an event overflows.
func (c *checker) horizon() int64 { return (c.q.mask + 1) << c.q.shift }

// run decodes data as an operation sequence: the first three bytes shape
// the queue, then each byte selects a pop, a push at one of several
// distances, a drain, or a re-Init with a new shape while events may
// still be pending.
func (c *checker) run(data []byte) {
	next := func() int64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int64(b)
	}
	c.init(1+next()*next(), int(next())*4)
	for len(data) > 0 {
		op := next()
		switch op % 8 {
		case 0, 1:
			c.pop()
		case 2:
			c.push(0)
		case 3:
			c.push(next() % 4)
		case 4:
			c.push(next() * c.horizon() / 256)
		case 5:
			c.push(c.horizon()*(1+next()%3) + next())
		case 6:
			c.init(1+next()*next(), int(next())*4)
		case 7:
			c.drain()
		}
	}
	c.drain()
}

// TestEventQueueCases runs the seed scenarios and checks that each
// reaches the queue path it is named for.
func TestEventQueueCases(t *testing.T) {
	t.Run("in-order", func(t *testing.T) {
		c := &checker{t: t}
		c.init(10, 4)
		for i := 0; i < 100; i++ {
			c.push(int64(i % 7))
			if i%3 == 0 {
				c.pop()
			}
		}
		c.drain()
	})
	t.Run("equal-times", func(t *testing.T) {
		c := &checker{t: t}
		c.init(1, 4)
		for r := 0; r < 5; r++ {
			for i := 0; i < 20; i++ {
				c.push(0)
			}
			for i := 0; i < 12; i++ {
				c.pop()
			}
			c.push(1)
		}
		c.drain()
	})
	t.Run("out-of-order-in-bucket", func(t *testing.T) {
		c := &checker{t: t}
		c.init(1000, 1) // 16 buckets for a span of 1000: shift > 0
		for r := 0; r < 10; r++ {
			for _, dt := range []int64{63, 5, 40, 5, 0, 17, 63, 1} {
				c.push(dt)
			}
			for i := 0; i < 6; i++ {
				c.pop()
			}
		}
		c.drain()
		if !c.sawShift {
			t.Fatal("scenario never used buckets wider than one cycle")
		}
	})
	t.Run("overflow-migration", func(t *testing.T) {
		c := &checker{t: t}
		c.init(20, 4)
		h := c.horizon()
		for r := 0; r < 4; r++ {
			c.push(3*h + int64(r))
			c.push(h + 1)
			c.push(2)
			c.push(3*h + int64(r))
			c.pop()
			c.pop()
		}
		c.drain()
		if !c.sawOverflow {
			t.Fatal("scenario never overflowed the ring")
		}
	})
	t.Run("reinit-reshape", func(t *testing.T) {
		c := &checker{t: t}
		c.init(5000, 600)
		for i := 0; i < 50; i++ {
			c.push(int64(i * 97 % 5000))
		}
		c.pop()
		c.init(3, 2) // abandon 49 pending events, shrink the ring
		for i := 0; i < 30; i++ {
			c.push(int64(i % 4))
		}
		c.drain()
		c.init(100000, 9000) // grow past the earlier shape
		for i := 0; i < 30; i++ {
			c.push(int64(i * 3331))
		}
		c.drain()
	})
}

// FuzzEventQueue checks Pop order against the brute-force reference
// over arbitrary interleavings of pushes, pops, overflows and re-Inits.
func FuzzEventQueue(f *testing.F) {
	for _, s := range [][]byte{
		{3, 1, 4, 2, 2, 2, 3, 1, 0, 0, 3, 3, 0},
		{40, 40, 1, 4, 200, 4, 10, 4, 90, 3, 2, 0, 0, 4, 255, 0},
		{5, 5, 2, 5, 1, 9, 5, 0, 0, 2, 0, 0, 0, 5, 2, 200, 7},
		{20, 30, 8, 4, 100, 2, 2, 6, 3, 3, 1, 4, 50, 3, 0, 0, 6, 200, 200, 255, 4, 7, 5, 1, 1, 0},
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("cap the reference's quadratic cost")
		}
		c := &checker{t: t}
		c.run(data)
	})
}
