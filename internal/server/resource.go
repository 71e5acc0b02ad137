package server

import (
	"errors"
	"fmt"
	"slices"

	"setdiscovery"
)

// The unified resource model of the v1 protocol: a stored discovery is an
// ordered list of member sessions. A single Session is a resource of one
// member (index 0), a Batch a resource of many — one set of accessors, one
// handler core, one set of validation and error semantics for both. The
// wire keeps distinct session/batch response shapes for clients, but every
// shape is rendered from these accessors, so the two kinds cannot drift
// apart.

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

// answerConflictError marks an answer failure that is the client's protocol
// state being stale (naming an already-answered question, answering a
// finished member) rather than a malformed request. The session handler maps
// it to 409 versus 400; the batch handler reports both kinds per member.
type answerConflictError struct{ err error }

func (e *answerConflictError) Error() string { return e.err.Error() }
func (e *answerConflictError) Unwrap() error { return e.err }

// applyMemberAnswer is the shared answer core: it parses the wire answer,
// validates the optional question assertion (entity/confirm/subset echoed
// from the question response, so a retried POST cannot land on the wrong
// question) and applies the reply to member i. The parse runs first,
// matching the pre-redesign session handler: a malformed answer is 400 even
// when the assertion is stale too. It does not end the round — callers
// apply all of a round's answers first.
func (s *Stored) applyMemberAnswer(i int, answer, entity, confirm string, subset []string, semantics string) error {
	if i < 0 || i >= s.Members() {
		return fmt.Errorf("resource has no member %d", i)
	}
	a, err := parseAnswer(answer)
	if err != nil {
		return err
	}
	if entity != "" || confirm != "" || len(subset) > 0 {
		q, done := s.Question(i)
		stale := done || q.Entity != entity || q.Confirm != confirm || !slices.Equal(q.Subset, subset)
		// The semantics assertion only binds alongside a subset — the other
		// question kinds have none to compare.
		if !stale && len(subset) > 0 && q.Semantics != semantics {
			stale = true
		}
		if stale {
			return &answerConflictError{fmt.Errorf(
				"answer names question {entity:%q confirm:%q subset:%v} but the pending question is {entity:%q confirm:%q subset:%v}: it was likely already answered",
				entity, confirm, subset, q.Entity, q.Confirm, q.Subset)}
		}
	}
	if s.Batch != nil {
		err = s.Batch.AnswerMember(i, a)
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
