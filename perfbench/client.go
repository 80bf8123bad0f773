package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"ordo/internal/wire"
)

// wconn is the benchmark's lean wire client: a window of requests is
// encoded into one buffer and written with one syscall, then every reply
// is read before the next window. It counts socket bytes both ways.
type wconn struct {
	nc       net.Conn
	br       *bufio.Reader
	out      []byte // framed requests of the window being built
	scratch  []byte // payload encode scratch
	rbuf     []byte // response payload scratch
	bytesOut uint64
	bytesIn  uint64
}

type countingReader struct {
	nc net.Conn
	n  *uint64
}

func (r countingReader) Read(p []byte) (int, error) {
	k, err := r.nc.Read(p)
	*r.n += uint64(k)
	return k, err
}

func dial(addr string) (*wconn, error) {
	nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	c := &wconn{nc: nc}
	c.br = bufio.NewReaderSize(countingReader{nc, &c.bytesIn}, 64<<10)
	return c, nil
}

func (c *wconn) close() { c.nc.Close() }

// add frames r onto the pending window.
func (c *wconn) add(r *wire.Request) error {
	p, err := wire.AppendRequest(c.scratch[:0], r)
	if err != nil {
		return err
	}
	c.scratch = p
	c.out = binary.AppendUvarint(c.out, uint64(len(p)))
	c.out = append(c.out, p...)
	return nil
}

// flush writes the pending window in one write.
func (c *wconn) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	_ = c.nc.SetWriteDeadline(time.Now().Add(30 * time.Second))
	_, err := c.nc.Write(c.out)
	c.bytesOut += uint64(len(c.out))
	c.out = c.out[:0]
	return err
}

// read decodes the next reply.
func (c *wconn) read() (wire.Response, error) {
	_ = c.nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	buf, err := wire.ReadFrame(c.br, c.rbuf)
	c.rbuf = buf
	if err != nil {
		return wire.Response{}, err
	}
	return wire.DecodeResponse(buf)
}

// do sends one request and reads its reply.
func (c *wconn) do(r *wire.Request) (wire.Response, error) {
	if err := c.add(r); err != nil {
		return wire.Response{}, err
	}
	if err := c.flush(); err != nil {
		return wire.Response{}, err
	}
	return c.read()
}

// stats fetches the server's STATS snapshot.
func (c *wconn) stats() (*wire.Stats, error) {
	resp, err := c.do(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return nil, err
	}
	if resp.Status != wire.StatusOK || resp.Stats == nil {
		return nil, fmt.Errorf("STATS answered %v", resp.Status)
	}
	return resp.Stats, nil
}

// reissued reports whether a status asks the client to send the request
// again: the server refused it without applying it.
func reissued(s wire.Status) bool {
	return s == wire.StatusConflict || s == wire.StatusBusy || s == wire.StatusNotYet
}

// window is one connection's closed loop. Requests are queued with
// push and sent together by round, one flush per round; every reply is
// read before round returns. A reply asking for a retry re-queues its
// request for the next round (counted in reissues); any other reply is
// final and goes to the round's callback with the request's tag.
type window[T any] struct {
	c        *wconn
	reqs     []wire.Request
	tags     []T
	nextReqs []wire.Request
	nextTags []T
	reissues uint64
	rec      *recorder // completions and their latency from the round's flush

	// capture keeps the first capN final requests and replies of the
	// measured window: the workload's own stream, for the codec timings.
	capN     int
	capReqs  []wire.Request
	capResps []wire.Response
}

func (w *window[T]) push(r wire.Request, tag T) {
	w.reqs = append(w.reqs, r)
	w.tags = append(w.tags, tag)
}

// pending reports how many requests the next round will send.
func (w *window[T]) pending() int { return len(w.reqs) }

func (w *window[T]) round(done func(tag T, req *wire.Request, resp *wire.Response) error) error {
	for i := range w.reqs {
		if err := w.c.add(&w.reqs[i]); err != nil {
			return err
		}
	}
	t0 := time.Now()
	if err := w.c.flush(); err != nil {
		return err
	}
	w.nextReqs, w.nextTags = w.nextReqs[:0], w.nextTags[:0]
	for i := range w.reqs {
		resp, err := w.c.read()
		if err != nil {
			return fmt.Errorf("reply %d of %d: %w", i+1, len(w.reqs), err)
		}
		if reissued(resp.Status) {
			w.reissues++
			w.nextReqs = append(w.nextReqs, w.reqs[i])
			w.nextTags = append(w.nextTags, w.tags[i])
			continue
		}
		if w.rec != nil {
			now := time.Now()
			w.rec.add(now, now.Sub(t0))
			if len(w.capReqs) < w.capN {
				w.capReqs = append(w.capReqs, w.reqs[i])
				w.capResps = append(w.capResps, resp)
			}
		}
		if err := done(w.tags[i], &w.reqs[i], &resp); err != nil {
			return err
		}
	}
	w.reqs, w.nextReqs = w.nextReqs, w.reqs
	w.tags, w.nextTags = w.nextTags, w.tags
	return nil
}
