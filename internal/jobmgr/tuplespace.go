// Tuple-space host side: each job's coordination space lives with its
// JobManager, and every task in the job (plus the client) reaches it over
// the wire through the TS_* request kinds. Blocking In/Rd requests park
// here against the space's waiters — the handler runs on its own dispatch
// goroutine, so parking never stalls the endpoint — and are answered when
// a match arrives or the park window lapses (Retry, re-issued by the
// caller). Closing the space at job termination fails all parked and
// future operations with ErrClosed.

package jobmgr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/tuplespace"
)

// Park-window clamps: a caller-supplied window is bounded so a malformed
// request can neither spin the handler nor park a goroutine past every
// caller's wire deadline. The upper bound stays under TSCallTimeout with
// room for the reply to travel — a park that outlives the caller's call
// would answer a dropped correlation, and for TS_IN that destroys the
// matched tuple.
const (
	minTSPark = 10 * time.Millisecond
	maxTSPark = protocol.TSCallTimeout - 2*time.Second
)

// tsPark is one parked blocking op, registered so a KindTSCancel from
// the requester can abort it: the requester gave up (cancelled task,
// cancelled client context), nobody holds the correlation anymore, and a
// tuple destructively matched after that point must go back into the
// space rather than onto the wire.
type tsPark struct {
	cancel  context.CancelFunc
	aborted atomic.Bool
}

// tsParks indexes parked ops by requester node + request message ID
// (message IDs are only unique per producing process). Server dispatch
// runs each message on its own goroutine, so a cancel can be processed
// BEFORE the op it cancels registers; such early cancels are remembered
// as tombstones the op consumes at registration.
type tsParks struct {
	mu      sync.Mutex
	m       map[string]*tsPark
	aborted map[string]time.Time
}

// tsAbortedCap bounds the early-cancel tombstone set; past it, entries
// older than any in-flight call could be are swept.
const tsAbortedCap = 1024

func tsParkKey(node string, reqID uint64) string {
	return fmt.Sprintf("%s/%d", node, reqID)
}

// add registers a park. It reports true — and marks the park aborted —
// when the requester's cancel already arrived; the caller must not wait.
func (p *tsParks) add(key string, park *tsPark) (preAborted bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m == nil {
		p.m = make(map[string]*tsPark)
		p.aborted = make(map[string]time.Time)
	}
	if _, ok := p.aborted[key]; ok {
		delete(p.aborted, key)
		park.aborted.Store(true)
		return true
	}
	p.m[key] = park
	return false
}

func (p *tsParks) remove(key string) {
	p.mu.Lock()
	delete(p.m, key)
	p.mu.Unlock()
}

// abort cancels a parked op on the requester's behalf. An op not (yet)
// registered leaves a tombstone so an out-of-order registration aborts
// itself immediately.
func (p *tsParks) abort(key string) {
	p.mu.Lock()
	park, ok := p.m[key]
	if !ok {
		if p.aborted == nil {
			p.aborted = make(map[string]time.Time)
		}
		p.aborted[key] = time.Now()
		if len(p.aborted) > tsAbortedCap {
			cutoff := time.Now().Add(-2 * protocol.TSCallTimeout)
			for k, at := range p.aborted {
				if at.Before(cutoff) {
					delete(p.aborted, k)
				}
			}
		}
		p.mu.Unlock()
		return
	}
	// The aborted flag must be set before the lock is released: tsOp's
	// remove-then-check runs under the same lock, so once we unlock with
	// the flag up, any wakeup that still sees its park registered is
	// guaranteed to observe the abort and put a destructively taken tuple
	// back instead of replying to the dropped correlation.
	park.aborted.Store(true)
	p.mu.Unlock()
	park.cancel()
}

// HandleTSOp processes one tuple-space request (KindTSOut, KindTSIn,
// KindTSRd, KindTSInP, KindTSRdP) against the owning job's space and
// returns the KindTSReply. Blocking kinds park the calling goroutine; the
// server must invoke this handler off the endpoint's dispatch loop.
func (jm *JobManager) HandleTSOp(m *msg.Message) *msg.Message {
	var req protocol.TSOpReq
	if err := protocol.Decode(m, &req); err != nil {
		return tsReply(m, &protocol.TSOpResp{Err: "bad tuple-space request: " + err.Error()})
	}
	j, err := jm.job(req.JobID)
	if err != nil {
		return tsReply(m, &protocol.TSOpResp{Err: err.Error()})
	}
	resp := jm.tsOp(j, m, &req)
	if resp == nil {
		return nil // abandoned park; the requester stopped listening
	}
	if resp.OK || resp.NoMatch {
		j.tsOps.Add(1)
	}
	return tsReply(m, resp)
}

func tsReply(m *msg.Message, resp *protocol.TSOpResp) *msg.Message {
	return m.Reply(msg.KindTSReply, msg.MustEncode(resp))
}

// tsOp runs one operation against the job's space. A nil response means
// the op's park was abandoned by its requester and no reply must be sent.
func (jm *JobManager) tsOp(j *jobState, m *msg.Message, req *protocol.TSOpReq) *protocol.TSOpResp {
	kind := m.Kind
	if kind == msg.KindTSOut {
		t, err := protocol.DecodeTuple(req.Fields)
		if err != nil {
			return &protocol.TSOpResp{Err: err.Error()}
		}
		if err := j.space.Out(t); err != nil {
			return tsErrResp(err)
		}
		return &protocol.TSOpResp{OK: true}
	}

	tpl, err := protocol.DecodeTemplate(req.Fields)
	if err != nil {
		return &protocol.TSOpResp{Err: err.Error()}
	}
	switch kind {
	case msg.KindTSInP, msg.KindTSRdP:
		var t tuplespace.Tuple
		if kind == msg.KindTSInP {
			t, err = j.space.InP(tpl)
		} else {
			t, err = j.space.RdP(tpl)
		}
		if err != nil {
			return tsErrResp(err)
		}
		return tsTupleResp(t)

	case msg.KindTSIn, msg.KindTSRd:
		park := time.Duration(req.ParkMS) * time.Millisecond
		if park <= 0 {
			park = protocol.TSParkWindow
		}
		park = min(max(park, minTSPark), maxTSPark)
		ctx, cancel := context.WithTimeout(context.Background(), park)
		defer cancel()
		p := &tsPark{cancel: cancel}
		key := tsParkKey(m.From.Node, m.ID)
		if jm.parked.add(key, p) {
			// The requester's cancel outran the request (dispatch is
			// per-message, unordered); don't park, don't take, don't reply.
			return nil
		}
		var t tuplespace.Tuple
		if kind == msg.KindTSIn {
			t, err = j.space.In(ctx, tpl)
		} else {
			t, err = j.space.Rd(ctx, tpl)
		}
		jm.parked.remove(key)
		if p.aborted.Load() {
			// The requester cancelled this park; nobody holds the
			// correlation. A tuple matched in the races around the abort
			// must not leave on the wire — put a destructively taken one
			// back for the live workers.
			if err == nil && kind == msg.KindTSIn {
				if oerr := j.space.Out(t); oerr == nil {
					jm.log.Debug("returned tuple after cancelled park", "job", j.id, "tuple", t, "peer", m.From.Node)
				}
			}
			return nil
		}
		switch {
		case err == nil:
			return tsTupleResp(t)
		case errors.Is(err, context.DeadlineExceeded):
			// Parked past the window without a match; the caller re-issues,
			// which is also its liveness probe against this JobManager.
			return &protocol.TSOpResp{Retry: true}
		default:
			return tsErrResp(err)
		}
	}
	return &protocol.TSOpResp{Err: "unsupported tuple-space kind " + kind.String()}
}

// HandleTSCancel processes a requester's notice that it abandoned a
// parked blocking op. No reply: the requester already moved on.
func (jm *JobManager) HandleTSCancel(m *msg.Message) {
	var req protocol.TSCancelReq
	if err := protocol.Decode(m, &req); err != nil {
		jm.log.Warn("bad ts-cancel", "peer", m.From.Node, "err", err)
		return
	}
	jm.parked.abort(tsParkKey(m.From.Node, req.ReqID))
}

// ReturnTSTuple puts back a tuple taken by a destructive op (TS_IN /
// TS_INP) whose reply could not be delivered — the requester's node died
// between parking and wakeup, so a stale waiter consumed the tuple and
// the fabric rejected the answer. Without the put-back the tuple would be
// lost to every live worker; with it the take degrades to a no-op and a
// surviving (or re-placed) worker matches the tuple instead. The server
// calls this only when Send itself failed; a reply lost in flight after a
// successful Send is the fabric's documented at-most-once semantics.
func (jm *JobManager) ReturnTSTuple(req, reply *msg.Message) {
	if req.Kind != msg.KindTSIn && req.Kind != msg.KindTSInP {
		return
	}
	var resp protocol.TSOpResp
	if err := protocol.Decode(reply, &resp); err != nil || !resp.OK || resp.Fields == nil {
		return
	}
	var op protocol.TSOpReq
	if err := protocol.Decode(req, &op); err != nil {
		return
	}
	j, err := jm.job(op.JobID)
	if err != nil {
		return
	}
	t, err := protocol.DecodeTuple(resp.Fields)
	if err != nil {
		return
	}
	// A closed space (job already terminal) rejects the put-back; nothing
	// is waiting on it anymore.
	if err := j.space.Out(t); err == nil {
		jm.log.Debug("returned tuple after undeliverable reply", "job", j.id,
			"tuple", t, "kind", req.Kind, "peer", req.From.Node)
	}
}

func tsErrResp(err error) *protocol.TSOpResp {
	switch {
	case errors.Is(err, tuplespace.ErrClosed):
		return &protocol.TSOpResp{Closed: true}
	case errors.Is(err, tuplespace.ErrNoMatch):
		return &protocol.TSOpResp{NoMatch: true}
	}
	return &protocol.TSOpResp{Err: err.Error()}
}

func tsTupleResp(t tuplespace.Tuple) *protocol.TSOpResp {
	fields, err := protocol.EncodeTuple(t)
	if err != nil {
		// Stored tuples were wire-encodable on the way in; this is a
		// programming error, surfaced rather than panicking the handler.
		return &protocol.TSOpResp{Err: err.Error()}
	}
	return &protocol.TSOpResp{OK: true, Fields: fields}
}
