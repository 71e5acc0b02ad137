package server

import (
	"errors"
	"fmt"
	"net/http"
	"slices"

	"setdiscovery"
)

// The unified resource model of the v1 protocol: a stored discovery is an
// ordered list of member sessions. A single Session is a resource of one
// member (index 0), a Batch a resource of many — one set of accessors and
// one set of validation and error semantics for both. The request cores
// below are what both planes run: the JSON handlers (server.go) and the
// stream frame handlers (stream.go) only decode a request, call a core, and
// encode its answer. create admits a new resource, answerRound applies one
// round of replies, and memberQuestion / memberResult render the member
// rows every response of either plane and either kind is built from — so
// neither the kinds nor the planes can drift apart. restoreStored is the
// import half of the state protocol.

// Resource kinds, as reported by Stored.Kind and the state wire payloads.
const (
	KindSession = "session"
	KindBatch   = "batch"
)

// Kind returns the resource kind.
func (s *Stored) Kind() string {
	if s.Batch != nil {
		return KindBatch
	}
	return KindSession
}

// Members returns the number of member sessions (1 for a single session).
func (s *Stored) Members() int {
	if s.Batch != nil {
		return s.Batch.Len()
	}
	return 1
}

// Question returns member i's pending question; done reports that member
// finished. i must be in [0, Members()).
func (s *Stored) Question(i int) (setdiscovery.Question, bool) {
	if s.Batch != nil {
		return s.Batch.Question(i)
	}
	return s.Session.Next()
}

// QuestionsAsked returns member i's question count so far (cheap: no result
// snapshot).
func (s *Stored) QuestionsAsked(i int) int {
	if s.Batch != nil {
		return s.Batch.MemberQuestions(i)
	}
	return s.Session.Questions()
}

// MemberDone reports whether member i has finished.
func (s *Stored) MemberDone(i int) bool {
	if s.Batch != nil {
		return s.Batch.MemberDone(i)
	}
	return s.Session.Done()
}

// Done reports whether every member has finished.
func (s *Stored) Done() bool {
	if s.Batch != nil {
		return s.Batch.Done()
	}
	return s.Session.Done()
}

// Result returns member i's outcome with Session.Result semantics.
func (s *Stored) Result(i int) (*setdiscovery.Result, error) {
	if s.Batch != nil {
		return s.Batch.Result(i)
	}
	return s.Session.Result()
}

// Snapshot serializes the resource's suspended state for export (GET
// …/state) and migration.
func (s *Stored) Snapshot() ([]byte, error) {
	if s.Batch != nil {
		return s.Batch.Snapshot()
	}
	return s.Session.Snapshot()
}

// createSpec is a create request in plane-neutral form. A batch gets one
// member per seed; a session starts from the first seed (none = the whole
// collection), or with tree set from none under the prebuilt tree's
// options.
type createSpec struct {
	batch bool
	tree  bool
	seeds [][]string
	cfg   SessionConfig
}

// create is both planes' create core: collection lookup, the batch seed
// checks, option mapping and store admission. It returns the new resource's
// ID, or the status and error to answer with. decode produces the plane's
// request and runs after the lookup, so an unknown collection is 404 even
// when the request is malformed too.
func (s *Server) create(name string, decode func() (createSpec, error)) (string, *Stored, int, error) {
	e, err := s.collection(name)
	if err != nil {
		return "", nil, http.StatusNotFound, err
	}
	spec, err := decode()
	if err != nil {
		return "", nil, http.StatusBadRequest, err
	}
	st, err := s.newStored(e, name, spec)
	if err != nil {
		return "", nil, http.StatusBadRequest, err
	}
	id, err := s.store.Put(st)
	switch {
	case errors.Is(err, ErrStoreFull):
		return "", nil, http.StatusServiceUnavailable, err
	case err != nil:
		return "", nil, http.StatusInternalServerError, err
	}
	return id, st, http.StatusCreated, nil
}

// newStored builds the resource spec asks for over e. The server's base
// options (WithSessionOptions) come first so request options override them.
func (s *Server) newStored(e *collectionEntry, name string, spec createSpec) (*Stored, error) {
	if spec.batch {
		if len(spec.seeds) == 0 {
			return nil, errors.New("a batch needs at least one seed")
		}
		if len(spec.seeds) > s.maxBatchMembers {
			return nil, fmt.Errorf("batch of %d members exceeds the limit of %d", len(spec.seeds), s.maxBatchMembers)
		}
		opts, err := sessionOptions(spec.cfg, s.sessionOpts)
		if err != nil {
			return nil, err
		}
		seeds := make([]setdiscovery.Seed, len(spec.seeds))
		for i, seed := range spec.seeds {
			seeds[i] = setdiscovery.Seed{Initial: seed}
		}
		b, err := e.c.NewBatch(seeds, opts...)
		if err != nil {
			return nil, err
		}
		return &Stored{Batch: b, Collection: name}, nil
	}
	var initial []string
	if len(spec.seeds) > 0 {
		initial = spec.seeds[0]
	}
	if spec.tree {
		if e.tree == nil {
			return nil, errors.New("collection has no prebuilt tree")
		}
		if len(initial) > 0 {
			return nil, errors.New("tree sessions start at the root and take no initial examples")
		}
		if !spec.cfg.isZero() {
			return nil, errors.New("tree sessions run under the options the tree was built with and take no session config")
		}
		return &Stored{Session: e.tree.NewSession(), Collection: name}, nil
	}
	opts, err := sessionOptions(spec.cfg, s.sessionOpts)
	if err != nil {
		return nil, err
	}
	sess, err := e.c.NewSession(initial, opts...)
	if err != nil {
		return nil, err
	}
	return &Stored{Session: sess, Collection: name}, nil
}

// answerRound is both planes' answer core. It applies one round of replies
// to st and, when the round succeeds, calls render with the round's
// per-member errors in the same critical section, so the response shows
// exactly the state the round left. A session takes one reply
// (answers[0]): a malformed one fails 400 and a stale one 409. A batch
// rejects the whole round with 400 when a reply names no member, before
// touching any session; otherwise a member's failed reply is reported in
// its row while the rest apply, so a retried round whose first attempt was
// partly applied converges instead of failing wholesale.
func answerRound(st *Stored, answers []MemberAnswerRequest, render func(memberErrs map[int]string)) (int, error) {
	st.Mu.Lock()
	defer st.Mu.Unlock()
	if st.Batch == nil {
		if err := st.applyMemberAnswer(answers[0]); err != nil {
			var conflict *answerConflictError
			if errors.As(err, &conflict) {
				return http.StatusConflict, err
			}
			return http.StatusBadRequest, err
		}
		render(nil)
		return http.StatusOK, nil
	}
	for _, ma := range answers {
		if ma.Member < 0 || ma.Member >= st.Members() {
			return http.StatusBadRequest, fmt.Errorf("batch has no member %d", ma.Member)
		}
	}
	memberErrs := make(map[int]string)
	for _, ma := range answers {
		if err := st.applyMemberAnswer(ma); err != nil {
			memberErrs[ma.Member] = err.Error()
		}
	}
	render(memberErrs)
	return http.StatusOK, nil
}

// answerConflictError marks an answer failure that is the client's protocol
// state being stale (naming an already-answered question, answering a
// finished member) rather than a malformed request. answerRound maps it to
// 409 versus 400 for a session and reports both kinds per member for a
// batch.
type answerConflictError struct{ err error }

func (e *answerConflictError) Error() string { return e.err.Error() }
func (e *answerConflictError) Unwrap() error { return e.err }

// applyMemberAnswer parses one wire reply, validates its optional question
// assertion (entity/confirm/subset echoed from the question response, so a
// retried answer cannot land on the wrong question) and applies it to
// member ma.Member, which answerRound has range-checked. The parse runs
// first, matching the pre-redesign session handler: a malformed answer is
// 400 even when the assertion is stale too.
func (s *Stored) applyMemberAnswer(ma MemberAnswerRequest) error {
	a, err := parseAnswer(ma.Answer)
	if err != nil {
		return err
	}
	if ma.Entity != "" || ma.Confirm != "" || len(ma.Subset) > 0 {
		q, done := s.Question(ma.Member)
		stale := done || q.Entity != ma.Entity || q.Confirm != ma.Confirm || !slices.Equal(q.Subset, ma.Subset)
		// The semantics assertion only binds alongside a subset — the other
		// question kinds have none to compare.
		if !stale && len(ma.Subset) > 0 && q.Semantics != ma.Semantics {
			stale = true
		}
		if stale {
			return &answerConflictError{fmt.Errorf(
				"answer names question {entity:%q confirm:%q subset:%v} but the pending question is {entity:%q confirm:%q subset:%v}: it was likely already answered",
				ma.Entity, ma.Confirm, ma.Subset, q.Entity, q.Confirm, q.Subset)}
		}
	}
	if s.Batch != nil {
		err = s.Batch.AnswerMember(ma.Member, a)
	} else {
		err = s.Session.Answer(a)
	}
	if err != nil {
		// The only engine-level Answer errors are protocol misuse: answering
		// a finished session/member (or racing another client for it).
		return &answerConflictError{err}
	}
	return nil
}

// memberQuestion renders member i's pending interaction: the row every
// question response of either plane is built from (a session's JSON
// response is row 0 flattened). err is the member's rejected reply from the
// round that produced the response. Callers hold the resource lock.
func memberQuestion(st *Stored, i int, err string) MemberQuestion {
	q, done := st.Question(i)
	return MemberQuestion{
		Member:    i,
		Done:      done,
		Entity:    q.Entity,
		Confirm:   q.Confirm,
		Subset:    q.Subset,
		Semantics: q.Semantics,
		Questions: st.QuestionsAsked(i),
		Error:     err,
	}
}

// memberResult renders member i's outcome: the row every result response of
// either plane is built from. A terminal discovery failure (contradiction
// with backtracking off or exhausted) is an outcome, not a transport error.
// Callers hold the resource lock.
func memberResult(st *Stored, i int) MemberResult {
	row := MemberResult{Member: i, Done: st.MemberDone(i)}
	res, err := st.Result(i)
	if err != nil {
		row.Error = err.Error()
		return row
	}
	row.ResultBody = ResultBody{
		Target:          res.Target,
		Candidates:      res.Candidates,
		Questions:       res.Questions,
		Interactions:    res.Interactions,
		Backtracks:      res.Backtracks,
		SelectionTimeUS: res.SelectionTime.Microseconds(),
	}
	return row
}

// inlineState renders the resource's portable snapshot when the request
// asked for one (?include_state=1, or a frame's WantState) — the piggyback
// a proxy tier uses to checkpoint resources on answer traffic without extra
// round trips. Callers hold the resource lock. Snapshot failures are logged
// and leave the field empty: the piggyback is advisory, never worth failing
// the interaction it rode in on.
func (s *Server) inlineState(want bool, id string, st *Stored) []byte {
	if !want {
		return nil
	}
	state, err := st.Snapshot()
	if err != nil {
		s.logf("server: inline state snapshot for %s: %v", id, err)
		return nil
	}
	return state
}

// restoreStored rebuilds a resource of either kind from snapshot bytes over
// a registered collection entry — the import half of the portable-session
// protocol (PUT …/state and router migration). wantKind restricts what the
// endpoint accepts ("" accepts any kind).
func restoreStored(e *collectionEntry, name string, data []byte, wantKind string, base []setdiscovery.Option) (*Stored, error) {
	info, err := setdiscovery.ReadSnapshotInfo(data)
	if err != nil {
		return nil, err
	}
	kind := KindSession
	if info.Kind == setdiscovery.SnapshotBatch {
		kind = KindBatch
	}
	if wantKind != "" && kind != wantKind {
		return nil, fmt.Errorf("state holds a %s, not a %s", kind, wantKind)
	}
	switch info.Kind {
	case setdiscovery.SnapshotSession:
		sess, err := e.c.RestoreSession(data, base...)
		if err != nil {
			return nil, err
		}
		return &Stored{Session: sess, Collection: name}, nil
	case setdiscovery.SnapshotTreeSession:
		if e.tree == nil {
			return nil, errors.New("state holds a tree-walk session but the collection has no registered tree")
		}
		sess, err := e.tree.RestoreSession(data)
		if err != nil {
			return nil, err
		}
		return &Stored{Session: sess, Collection: name}, nil
	case setdiscovery.SnapshotBatch:
		b, err := e.c.RestoreBatch(data, base...)
		if err != nil {
			return nil, err
		}
		return &Stored{Batch: b, Collection: name}, nil
	default:
		return nil, fmt.Errorf("unsupported snapshot kind %v", info.Kind)
	}
}
