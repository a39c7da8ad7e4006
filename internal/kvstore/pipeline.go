package kvstore

import (
	"fmt"
	"time"
)

// Pipeline queues commands and sends them as one burst over a single
// pooled connection: one vectored write (writev), one round trip, N
// in-order replies — the Redis-style pipelining that collapses N round
// trips into one.
//
// Commands are encoded into a pooled wire tape as they are queued, not
// re-marshaled at Run: queueing a 4 KiB stripe write costs a few header
// bytes, and the payload itself is referenced zero-copy. Payload slices
// passed to Set/SetRange/VSet and destination buffers passed to
// GetRangeInto must therefore stay valid — and unmodified — until Run
// returns.
//
// A Pipeline is not safe for concurrent use (build and Run it from one
// goroutine), but independent pipelines on the same Client are: each Run
// checks out its own pooled connection. Like Client.do, Run retries the
// whole burst on a broken connection, so queue only idempotent commands
// (SET/GET/DEL/SETNX/VSET and friends — not INCR or SADD) unless the
// caller tolerates re-execution.
type Pipeline struct {
	c     *Client
	enc   *wireEnc
	sinks []pipeSink
	n     int
}

// pipeSink records where one queued command's reply payload should be
// decoded; into=false means generic Reply decoding.
type pipeSink struct {
	dst  []byte
	into bool
}

// Pipeline starts an empty command pipeline on the client.
func (c *Client) Pipeline() *Pipeline { return &Pipeline{c: c} }

// Len reports how many commands are queued.
func (p *Pipeline) Len() int { return p.n }

func (p *Pipeline) tape() *wireEnc {
	if p.enc == nil {
		p.enc = getEnc()
	}
	return p.enc
}

func (p *Pipeline) endCmd(dst []byte, into bool) {
	p.sinks = append(p.sinks, pipeSink{dst: dst, into: into})
	p.n++
}

// Set queues a SET.
func (p *Pipeline) Set(key string, value []byte) {
	e := p.tape()
	e.beginCommand(3)
	e.argString("SET")
	e.argString(key)
	e.argBytes(value)
	p.endCmd(nil, false)
}

// SetNX queues a SETNX.
func (p *Pipeline) SetNX(key string, value []byte) {
	e := p.tape()
	e.beginCommand(3)
	e.argString("SETNX")
	e.argString(key)
	e.argBytes(value)
	p.endCmd(nil, false)
}

// GetRangeInto queues a GETRANGE whose reply payload decodes directly
// into dst (len(dst) >= length) — the zero-copy burst read. The reply's
// Bulk aliases dst, truncated to the bytes actually returned; dst must
// stay valid until Run returns, and on a failed Run its contents are
// undefined.
func (p *Pipeline) GetRangeInto(key string, offset, length int64, dst []byte) {
	e := p.tape()
	e.beginCommand(4)
	e.argString("GETRANGE")
	e.argString(key)
	e.argInt(offset)
	e.argInt(length)
	p.endCmd(dst[:length], true)
}

// SetRange queues a SETRANGE.
func (p *Pipeline) SetRange(key string, offset int64, value []byte) {
	e := p.tape()
	e.beginCommand(4)
	e.argString("SETRANGE")
	e.argString(key)
	e.argInt(offset)
	e.argBytes(value)
	p.endCmd(nil, false)
}

// VSet queues a VSET, the versioned stripe write: it writes value into
// key's payload at offset off — or, with off == Whole, replaces the value.
// The reply's Int is the generation the store stamped into the value's
// header, one past the one it held; id names the write.
func (p *Pipeline) VSet(key string, id uint64, off int64, value []byte) {
	e := p.tape()
	if off == Whole {
		e.beginCommand(4)
	} else {
		e.beginCommand(5)
	}
	e.argString("VSET")
	e.argString(key)
	e.argInt(int64(id))
	if off != Whole {
		e.argInt(off)
	}
	e.argBytes(value)
	p.endCmd(nil, false)
}

// Del queues a DEL of one batch of keys (a single multi-key command).
func (p *Pipeline) Del(keys ...string) {
	e := p.tape()
	e.beginCommand(1 + len(keys))
	e.argString("DEL")
	for _, k := range keys {
		e.argString(k)
	}
	p.endCmd(nil, false)
}

// DelVal queues a DELVAL (compare-and-delete: remove key only if it still
// holds exactly value). Safe to retry: a re-run after the delete landed
// simply reports 0.
func (p *Pipeline) DelVal(key string, value []byte) {
	e := p.tape()
	e.beginCommand(3)
	e.argString("DELVAL")
	e.argString(key)
	e.argBytes(value)
	p.endCmd(nil, false)
}

// Run flushes the queued commands in one burst and reads their replies,
// aligned with queue order. Error *replies* (e.g. OOM on one SET) do not
// fail the burst — inspect each Reply.Err(); Run itself fails only on
// transport or protocol errors, after retrying the whole burst per the
// client's retry policy (mid-pipeline connection death replays the
// encoded tape verbatim, hence the idempotency requirement above). The
// queue is cleared — and the pooled tape released — when Run returns,
// success or failure, so the pipeline can be reused.
func (p *Pipeline) Run() ([]*Reply, error) { return p.RunStat(nil) }

// RunStat is Run with an optional OpStat out-param receiving the burst's
// final attempt count and duration for trace attribution.
func (p *Pipeline) RunStat(st *OpStat) ([]*Reply, error) {
	if p.n == 0 {
		return nil, nil
	}
	// Release the tape on every exit path — success, exhausted retries,
	// client teardown — a pooled buffer held across an error return is a
	// leak.
	defer p.reset()
	c := p.c
	var replies []*Reply
	err := c.withRetry("PIPELINE", p.n, st, func(cc *clientConn) error {
		rs, err := p.roundTrip(cc, c.timeout)
		if err != nil {
			return err
		}
		replies = rs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return replies, nil
}

func (p *Pipeline) reset() {
	if p.enc != nil {
		putEnc(p.enc)
		p.enc = nil
	}
	for i := range p.sinks {
		p.sinks[i] = pipeSink{}
	}
	p.sinks = p.sinks[:0]
	p.n = 0
}

// roundTrip replays the encoded tape as one vectored write, then reads
// the same number of replies. Replies share one arena allocation; sinked
// GETRANGEs decode straight into their destination buffers.
func (p *Pipeline) roundTrip(cc *clientConn, timeout time.Duration) ([]*Reply, error) {
	if err := cc.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if err := p.enc.writeTo(cc.conn); err != nil {
		return nil, err
	}
	arena := make([]Reply, p.n)
	out := make([]*Reply, p.n)
	for i := 0; i < p.n; i++ {
		r := &arena[i]
		if s := p.sinks[i]; s.into {
			n, ok, errMsg, err := readBulkReplyInto(cc.br, s.dst)
			if err != nil {
				return nil, fmt.Errorf("kvstore: pipeline reply %d of %d: %w", i+1, p.n, err)
			}
			switch {
			case errMsg != "":
				r.Kind = '-'
				r.Str = errMsg
			case !ok:
				r.Kind = '$'
				r.Nil = true
			default:
				r.Kind = '$'
				r.Bulk = s.dst[:n]
			}
		} else if err := readReplyInto(cc.br, r); err != nil {
			return nil, fmt.Errorf("kvstore: pipeline reply %d of %d: %w", i+1, p.n, err)
		}
		out[i] = r
	}
	return out, nil
}

// MGet fetches every key in one round trip; missing keys yield nil
// entries, aligned with keys.
func (c *Client) MGet(keys ...string) ([][]byte, error) {
	reply, err := c.do(append([][]byte{verbMGet}, bs(keys...)...)...)
	if err != nil {
		return nil, err
	}
	if err := reply.Err(); err != nil {
		return nil, err
	}
	if len(reply.Array) != len(keys) {
		return nil, fmt.Errorf("kvstore: MGET returned %d values for %d keys", len(reply.Array), len(keys))
	}
	return reply.Array, nil
}
