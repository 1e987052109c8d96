package serve

import (
	"container/list"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"
	"unsafe"

	"smartndr"
	"smartndr/internal/core"
	"smartndr/internal/obs"
)

// Session endpoints (histogram names are serve.<endpoint>_<class>_seconds).
const (
	epSessionCreate = "session_create"
	epSessionDelta  = "session_delta"
	epSessionRead   = "session_read"
)

// Session store defaults (Config.SessionTTL, MaxSessions, SessionMaxBytes).
const (
	defaultSessionTTL      = 15 * time.Minute
	defaultMaxSessions     = 64
	defaultSessionMaxBytes = 256 << 20
)

// SessionCreateRequest is the wire form of POST /v1/session: the same
// shape as /v1/flow (including optional initial edits — re-hydrating an
// evicted session is a create carrying its last edit state), plus a TTL.
type SessionCreateRequest struct {
	FlowRequest
	// TTLMS overrides the server's idle TTL for this session, in
	// milliseconds; it can shorten but never extend the server bound.
	TTLMS int `json:"ttl_ms,omitempty"`
}

// SessionDeltaRequest is the wire form of POST /v1/session/{id}/delta.
// Exactly one of Edits (apply on top of the current state) or RollbackTo
// (jump back to an earlier rev) must be present.
type SessionDeltaRequest struct {
	Edits []smartndr.Edit `json:"edits,omitempty"`
	// RollbackTo names an earlier rev (0 = the create state); the
	// session returns to that state and records the visit as a new rev.
	RollbackTo *int `json:"rollback_to,omitempty"`
	TimeoutMS  int  `json:"timeout_ms,omitempty"`
}

// SessionResponse is the body of every successful session call. Result
// is the exact /v1/flow response body for the session's current edit
// state — byte-identical to a cold run — while the envelope fields are
// session-local (IDs and rev counters follow allocation order, so they
// are the one part of the session API that is not content-addressed).
type SessionResponse struct {
	Session string          `json:"session"`
	Rev     int             `json:"rev"`
	Revs    int             `json:"revs"`
	Key     string          `json:"key"`
	Nodes   int             `json:"nodes"`
	Result  json.RawMessage `json:"result,omitempty"`
}

// SessionStats is the /v1/statsz session view.
type SessionStats struct {
	Live        int   `json:"live"`
	MaxSessions int   `json:"max_sessions"`
	Bytes       int64 `json:"bytes"`
	MaxBytes    int64 `json:"max_bytes"`
}

// DecodeSessionCreateRequest parses and validates a /v1/session body.
func DecodeSessionCreateRequest(data []byte) (*SessionCreateRequest, error) {
	var req SessionCreateRequest
	if err := decodeStrict(data, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if req.TTLMS < 0 {
		return nil, fmt.Errorf("serve: negative ttl_ms %d", req.TTLMS)
	}
	// As in DecodeFlowRequest: an explicit empty edit list is no edits.
	if len(req.Edits) == 0 {
		req.Edits = nil
	}
	return &req, nil
}

// DecodeSessionDeltaRequest parses and validates a delta body.
func DecodeSessionDeltaRequest(data []byte) (*SessionDeltaRequest, error) {
	var req SessionDeltaRequest
	if err := decodeStrict(data, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if len(req.Edits) == 0 {
		req.Edits = nil
	}
	return &req, nil
}

// Validate checks the delta's shape without touching a session.
func (r *SessionDeltaRequest) Validate() error {
	if len(r.Edits) > 0 && r.RollbackTo != nil {
		return fmt.Errorf("serve: edits and rollback_to are mutually exclusive")
	}
	if len(r.Edits) == 0 && r.RollbackTo == nil {
		return fmt.Errorf("serve: delta needs edits or rollback_to")
	}
	if r.RollbackTo != nil && *r.RollbackTo < 0 {
		return fmt.Errorf("serve: negative rollback_to %d", *r.RollbackTo)
	}
	if len(r.Edits) > maxRequestEdits {
		return fmt.Errorf("serve: %d edits exceeds the %d-edit limit", len(r.Edits), maxRequestEdits)
	}
	for i, e := range r.Edits {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("serve: edit %d: %w", i, err)
		}
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("serve: negative timeout_ms %d", r.TimeoutMS)
	}
	return nil
}

// sessionRev is one visited edit state, stored compactly. A delta rev
// keeps only the canonical form of its own request edits and the rev it
// extends; a full rev (base < 0) keeps the whole canonical state. Rev 0,
// every checkpointEvery-th rev and every rollback rev are full, so
// rebuilding any state replays at most checkpointEvery-1 deltas. Keys are
// not stored: a key is a pure function of the state, and the handle
// recomputes it when a rollback re-applies one.
//
// A delta rev that adds exactly one edit, the common interactive delta,
// holds that edit in its own fields instead of a list (see deltaRev), so
// it costs its slot and no allocation.
type sessionRev struct {
	base  int
	edits []smartndr.Edit
	// The packed edit: op is one more than its op's index in packedOps,
	// 0 on a rev that keeps its edits in the list.
	idx  int32 // Sink or Node
	rule int16
	op   uint8
	x, y float64 // X and Y, Cap, or InSlewPS
}

// packedOps are the ops a packed rev can hold, by op code minus one.
var packedOps = [...]string{core.OpMoveSink, core.OpSinkCap, core.OpSinkRule, core.OpNodeRule, core.OpInSlew}

// deltaRev records the canonical delta on top of rev base. A one-edit
// delta is packed into the rev's own fields when it unpacks to the same
// edit, which also rules out an index or rule too wide for them; any
// other delta keeps its list.
func deltaRev(base int, delta []smartndr.Edit) sessionRev {
	if len(delta) == 1 {
		e := delta[0]
		r := sessionRev{base: base, idx: int32(e.Sink), rule: int16(e.Rule), x: e.X, y: e.Y,
			op: uint8(slices.Index(packedOps[:], e.Op) + 1)}
		switch e.Op {
		case core.OpNodeRule:
			r.idx = int32(e.Node)
		case core.OpSinkCap:
			r.x = e.Cap
		case core.OpInSlew:
			r.x = e.InSlewPS
		}
		if r.op != 0 && r.edit() == e {
			return r
		}
	}
	return sessionRev{base: base, edits: delta}
}

// edit unpacks a packed rev's edit: the fields fill as a move_sink's,
// then move to where the op keeps them. A canonical edit carries only
// the fields its op reads, so that is the whole edit.
func (r sessionRev) edit() smartndr.Edit {
	e := smartndr.Edit{Op: packedOps[r.op-1], Sink: int(r.idx), Rule: int(r.rule), X: r.x, Y: r.y}
	switch e.Op {
	case core.OpNodeRule:
		e.Sink, e.Node = 0, e.Sink
	case core.OpSinkCap:
		e.X, e.Cap = 0, e.X
	case core.OpInSlew:
		e.X, e.InSlewPS = 0, e.X
	}
	return e
}

// delta returns the canonical edits a delta rev adds.
func (r sessionRev) delta() []smartndr.Edit {
	if r.op == 0 {
		return r.edits
	}
	return []smartndr.Edit{r.edit()}
}

// checkpointEvery is the rev interval at which a delta stores its full
// state instead of its own edits.
const checkpointEvery = 32

// Rev footprint estimate for the store's byte accounting, in the spirit
// of SessionHandle.MemoryBytes: the rev's slot in the history slice plus
// the edits of its list (an Edit is 72 bytes; 80 with allocator
// rounding). A packed rev has no list.
const (
	revSlotBytes = int64(unsafe.Sizeof(sessionRev{}))
	editBytes    = 80
)

// revBytes estimates one rev's resident footprint.
func revBytes(r sessionRev) int64 {
	return revSlotBytes + int64(len(r.edits))*editBytes
}

// session is one store entry. The store's lock covers placement (map,
// LRU list, byte accounting); mu covers the handle, the live state and
// the rev history — deltas take the write side (single writer per
// session), reads the read side. An evicted session's in-flight delta
// still completes: eviction only unlinks the entry, it never touches the
// handle.
type session struct {
	id     string
	handle SessionHandle

	mu   sync.RWMutex
	revs []sessionRev
	live []smartndr.Edit // canonical state at the newest rev
	key  string          // its content address

	// The fields below are guarded by the store lock, not mu.
	expiry time.Time
	ttl    time.Duration
	bytes  int64
	elem   *list.Element
	gone   bool // evicted or closed; kept for observability in tests
}

// state rebuilds the canonical edit state at rev: from the nearest full
// rev at or before it, fold each later delta's edits in with
// core.CanonicalEdits — the same fold that produced the state when the
// rev was first visited, so the result is the identical edit list.
// Callers hold mu.
func (s *session) state(rev int) []smartndr.Edit {
	r := s.revs[rev]
	if r.base < 0 {
		return r.edits
	}
	return extend(s.state(r.base), r.delta())
}

// extend is the state fold: the canonical state reached by applying
// delta on top of state.
func extend(state, delta []smartndr.Edit) []smartndr.Edit {
	return core.CanonicalEdits(slices.Concat(state, delta))
}

// sessionStore owns the live sessions: TTL expiry (lazy, via the
// injected clock — no background goroutine to leak or to fake in tests),
// LRU eviction under session-count and memory pressure, and gauge
// upkeep. All methods are safe for concurrent use.
type sessionStore struct {
	mu          sync.Mutex
	byID        map[string]*session
	lru         *list.List // front = most recently used
	ttl         time.Duration
	maxSessions int
	maxBytes    int64
	bytes       int64
	seq         int64
	now         func() time.Time
	reg         *obs.Registry
}

func newSessionStore(ttl time.Duration, maxSessions int, maxBytes int64,
	now func() time.Time, reg *obs.Registry) *sessionStore {
	return &sessionStore{
		byID:        make(map[string]*session),
		lru:         list.New(),
		ttl:         ttl,
		maxSessions: maxSessions,
		maxBytes:    maxBytes,
		now:         now,
		reg:         reg,
	}
}

// gauges refreshes the live-session gauges; callers hold st.mu.
func (st *sessionStore) gauges() {
	st.reg.Set("serve.session_live", float64(len(st.byID)))
	st.reg.Set("serve.session_bytes", float64(st.bytes))
}

// dropLocked unlinks a session; callers hold st.mu and account the
// removal under its own counter.
func (st *sessionStore) dropLocked(s *session) {
	delete(st.byID, s.id)
	st.lru.Remove(s.elem)
	st.bytes -= s.bytes
	s.gone = true
}

// expireLocked retires every idle-expired session. TTLs refresh on use,
// so for a uniform TTL the LRU order is expiry order; mixed per-session
// TTLs make the back-of-list scan conservative (a short-TTL session
// behind a long-TTL one outlives its deadline until the next add/get —
// lazy expiry trades that slack for having no background sweeper).
func (st *sessionStore) expireLocked(now time.Time) {
	for e := st.lru.Back(); e != nil; {
		s := e.Value.(*session)
		e = e.Prev()
		if now.Before(s.expiry) {
			continue
		}
		st.dropLocked(s)
		st.reg.Add("serve.session_expired", 1)
	}
}

// add stores a new session and returns its entry, evicting LRU entries
// as needed to respect the session-count and byte budgets. A session
// bigger than the whole byte budget is still admitted — alone — because
// refusing it forever would make large specs un-sessionable; the budget
// is a soft target, not an allocator.
func (st *sessionStore) add(h SessionHandle, ttl time.Duration, state []smartndr.Edit, key string) *session {
	if ttl <= 0 || ttl > st.ttl {
		ttl = st.ttl
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.now()
	st.expireLocked(now)
	// The handle's estimate covers rev 0's slot; its edits are extra.
	bytes := h.MemoryBytes() + int64(len(state))*editBytes
	for len(st.byID) > 0 &&
		(len(st.byID) >= st.maxSessions || st.bytes+bytes > st.maxBytes) {
		st.dropLocked(st.lru.Back().Value.(*session))
		st.reg.Add("serve.session_evicted", 1)
	}
	st.seq++
	s := &session{
		id:     fmt.Sprintf("s%d", st.seq),
		handle: h,
		revs:   []sessionRev{{base: -1, edits: state}},
		live:   state,
		key:    key,
		expiry: now.Add(ttl),
		ttl:    ttl,
		bytes:  bytes,
	}
	s.elem = st.lru.PushFront(s)
	st.byID[s.id] = s
	st.bytes += bytes
	st.reg.Add("serve.session_created", 1)
	st.gauges()
	return s
}

// grow charges n more bytes to a live session's accounting. The budget
// it counts toward is enforced when the next session is added; a delta
// never evicts.
func (st *sessionStore) grow(s *session, n int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if s.gone {
		return // dropLocked already released this session's bytes
	}
	s.bytes += n
	st.bytes += n
	st.gauges()
}

// get returns a live session, refreshing its TTL and recency, or nil if
// the ID is unknown or idle-expired.
func (st *sessionStore) get(id string) *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.now()
	st.expireLocked(now)
	st.gauges()
	s := st.byID[id]
	if s == nil {
		return nil
	}
	s.expiry = now.Add(s.ttl)
	st.lru.MoveToFront(s.elem)
	return s
}

// remove closes a session by ID; reports whether it was live.
func (st *sessionStore) remove(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.byID[id]
	if s == nil {
		return false
	}
	st.dropLocked(s)
	st.reg.Add("serve.session_closed", 1)
	st.gauges()
	return true
}

// stats snapshots the store for /v1/statsz.
func (st *sessionStore) stats() SessionStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.expireLocked(st.now())
	st.gauges()
	return SessionStats{
		Live:        len(st.byID),
		MaxSessions: st.maxSessions,
		Bytes:       st.bytes,
		MaxBytes:    st.maxBytes,
	}
}

// errNoSession is the 404 for an unknown or expired session ID.
func errNoSession(id string) error {
	return &StatusError{Code: http.StatusNotFound,
		Err: fmt.Errorf("serve: no session %q (expired or never created)", id)}
}

// sessionReply renders a session response. Session responses are
// stateful (rev counters), so there is no result cache — the admission
// gate is the only throughput control. cache is the class a 200 lands
// in: "" (cold) for work that runs the engine, CacheHit for pure state
// reads.
func sessionReply(sp *obs.Span, resp *SessionResponse, cache string) (reply, error) {
	sp.Set(obs.S("session", resp.Session))
	body, err := json.Marshal(resp)
	return reply{key: resp.Key, cache: cache, body: body}, err
}

// sessionCreate serves POST /v1/session: open the flow cold (gated —
// it is a full synthesis), apply the initial edit state, store the
// session at rev 0.
func (s *Server) sessionCreate(r *http.Request, body []byte, sp *obs.Span, rtr *obs.Tracer) (reply, error) {
	req, err := DecodeSessionCreateRequest(body)
	if err != nil {
		return reply{}, badRequest(err)
	}
	sr, ok := s.runner.(SessionRunner)
	if !ok {
		return reply{}, &StatusError{Code: http.StatusNotImplemented,
			Err: fmt.Errorf("serve: this runner does not host sessions")}
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	release, err := s.gate.Acquire(ctx)
	if err != nil {
		return reply{}, err
	}
	defer release()
	h, err := sr.OpenSession(ctx, &req.FlowRequest, rtr)
	if err != nil {
		return reply{}, err
	}
	state := core.CanonicalEdits(req.Edits)
	result, key, err := h.Apply(ctx, state)
	if err != nil {
		return reply{}, err
	}
	sess := s.sessions.add(h, time.Duration(req.TTLMS)*time.Millisecond, state, key)
	return sessionReply(sp, &SessionResponse{
		Session: sess.id,
		Rev:     0,
		Revs:    1,
		Key:     key,
		Nodes:   h.Nodes(),
		Result:  result,
	}, "")
}

// sessionDelta serves POST /v1/session/{id}/delta: resolve the target
// edit state (stacked edits or a rollback), apply it under the
// session's writer lock, record the new rev.
func (s *Server) sessionDelta(r *http.Request, body []byte, sp *obs.Span, rtr *obs.Tracer) (reply, error) {
	req, err := DecodeSessionDeltaRequest(body)
	if err != nil {
		return reply{}, badRequest(err)
	}
	id := r.PathValue("id")
	sess := s.sessions.get(id)
	if sess == nil {
		return reply{}, errNoSession(id)
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	release, err := s.gate.Acquire(ctx)
	if err != nil {
		return reply{}, err
	}
	defer release()
	asp := rtr.Start("serve.session_apply", obs.I("edits", len(req.Edits)))
	defer asp.End()
	// Single writer: resolving the target state, the edit itself, and
	// the rev append are one critical section, so concurrent deltas
	// serialize and each sees the other's revs.
	sess.mu.Lock()
	defer sess.mu.Unlock()
	var state []smartndr.Edit
	next := len(sess.revs)
	rev := sessionRev{base: -1}
	if rb := req.RollbackTo; rb != nil {
		if *rb >= next {
			return reply{}, fmt.Errorf("%w: rollback_to %d beyond rev %d", core.ErrEdit, *rb, next-1)
		}
		state = sess.state(*rb)
		rev.edits = state
		s.reg.Add("serve.session_rollbacks", 1)
	} else {
		delta := core.CanonicalEdits(req.Edits)
		state = extend(sess.live, delta)
		rev.edits = state
		if next%checkpointEvery != 0 {
			rev = deltaRev(next-1, delta)
		}
	}
	result, key, err := sess.handle.Apply(ctx, state)
	if err != nil {
		return reply{}, err
	}
	sess.revs = append(sess.revs, rev)
	sess.live, sess.key = state, key
	s.sessions.grow(sess, revBytes(rev))
	s.reg.Add("serve.session_deltas", 1)
	return sessionReply(sp, &SessionResponse{
		Session: sess.id,
		Rev:     next,
		Revs:    next + 1,
		Key:     key,
		Nodes:   sess.handle.Nodes(),
		Result:  result,
	}, "")
}

// sessionRead serves GET /v1/session/{id}: a cheap state read, no
// engine work.
func (s *Server) sessionRead(r *http.Request, _ []byte, sp *obs.Span, _ *obs.Tracer) (reply, error) {
	id := r.PathValue("id")
	sess := s.sessions.get(id)
	if sess == nil {
		return reply{}, errNoSession(id)
	}
	sess.mu.RLock()
	defer sess.mu.RUnlock()
	return sessionReply(sp, &SessionResponse{
		Session: sess.id,
		Rev:     len(sess.revs) - 1,
		Revs:    len(sess.revs),
		Key:     sess.key,
		Nodes:   sess.handle.Nodes(),
	}, CacheHit)
}

// closeSession serves DELETE /v1/session/{id}: close now instead of
// waiting out the TTL.
func (s *Server) closeSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sessions.remove(id) {
		s.fail(w, nil, errNoSession(id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]string{"closed": id})
}
