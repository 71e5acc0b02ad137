package server

// Wire types of the JSON/HTTP serving protocol. One discovery round-trip is
// one POST: the answer request returns the next question, so a scripted
// client needs create + N answers + result to resolve a target.

// SessionConfig holds the engine options shared by single-session and
// batch creation requests; zero values take the engine defaults. It is
// embedded, so its fields appear flat in the JSON bodies.
type SessionConfig struct {
	// Strategy names the entity-selection strategy ("klp", "klple",
	// "klplve", "infogain", "most-even", "indg", "lb1", "gaink");
	// case-insensitive, default "klp".
	Strategy string `json:"strategy,omitempty"`
	// K is the lookahead depth (default 2).
	K int `json:"k,omitempty"`
	// Q bounds candidate entities per lookahead step for klple/klplve
	// (default 10).
	Q int `json:"q,omitempty"`
	// Metric is "ad" (average questions, default) or "h" (worst case).
	Metric string `json:"metric,omitempty"`
	// MaxQuestions halts the session after this many questions (0 =
	// unlimited).
	MaxQuestions int `json:"max_questions,omitempty"`
	// BatchSize asks several membership questions per interaction (§6
	// multiple-choice examples).
	BatchSize int `json:"batch_size,omitempty"`
	// Backtrack enables §6 error recovery: the session asks a final
	// confirmation question and revisits earlier answers on rejection.
	Backtrack bool `json:"backtrack,omitempty"`
	// GroupStrategy switches the session to set-valued (group-testing)
	// questions, selected by strategy name ("halving", "additive"). Group
	// sessions ignore Strategy and BatchSize; K bounds the additive
	// strategy's simultaneous-target count.
	GroupStrategy string `json:"group_strategy,omitempty"`
	// GroupConstraints are entity-name dependencies honoured by the additive
	// strategy: each pair [if, then] states that any target containing "if"
	// also contains "then".
	GroupConstraints [][2]string `json:"group_constraints,omitempty"`
}

// CreateSessionRequest configures a new discovery session over a registered
// collection (POST /v1/collections/{collection}/sessions). Zero values take
// the engine defaults; Tree selects a walk of the collection's prebuilt
// decision tree instead of the interactive strategy loop.
type CreateSessionRequest struct {
	// Initial holds the initial example entities (Algorithm 2 line 1).
	// Must be empty for tree sessions: a prebuilt tree always starts at
	// its root.
	Initial []string `json:"initial,omitempty"`
	SessionConfig
	// Tree walks the collection's prebuilt decision tree (constant
	// per-question cost) instead of running the strategy loop.
	Tree bool `json:"tree,omitempty"`
}

// QuestionResponse is the state of a session's pending interaction,
// returned by create-session, get-question and post-answer. Exactly one of
// Entity, Subset and Confirm is set while Done is false: Entity asks "is
// this entity in your set?", Subset asks a set-valued question under
// Semantics ("intersects": "does your set share at least one of these?";
// "subset-of": "is every one of these in your set?"), Confirm asks "is this
// set your target?".
type QuestionResponse struct {
	SessionID string   `json:"session_id"`
	Done      bool     `json:"done"`
	Entity    string   `json:"entity,omitempty"`
	Confirm   string   `json:"confirm,omitempty"`
	Subset    []string `json:"subset,omitempty"`
	Semantics string   `json:"semantics,omitempty"`
	// Questions counts membership answers received so far (confirmation
	// questions are counted when asked, mirroring the engine).
	Questions int `json:"questions"`
	// State carries the session's portable snapshot when the request asked
	// for it with ?include_state=1 — the same bytes GET …/state exports,
	// piggybacked so a proxy tier can checkpoint sessions on answer traffic
	// without extra round trips. Omitted otherwise.
	State []byte `json:"state,omitempty"`
}

// AnswerRequest replies to the pending question (POST
// /v1/sessions/{id}/answer). Answer is "yes", "no" or "unknown" ("y", "n",
// "?" and "dk" are accepted aliases). For a confirmation question, "yes"
// accepts the candidate and anything else rejects it, triggering
// backtracking.
//
// Entity / Confirm / Subset (with Semantics), when non-empty, assert which
// question the answer is for; a mismatch with the pending question is
// rejected with 409. Clients should copy them from the QuestionResponse
// they are answering, so a retried POST whose first attempt was applied but
// whose response was lost cannot land on the wrong question.
type AnswerRequest struct {
	Answer    string   `json:"answer"`
	Entity    string   `json:"entity,omitempty"`
	Confirm   string   `json:"confirm,omitempty"`
	Subset    []string `json:"subset,omitempty"`
	Semantics string   `json:"semantics,omitempty"`
}

// ResultBody is the outcome shape shared by session results and batch
// member results — one renderer serves both (the unified resource model).
// Error carries a terminal discovery failure (e.g. answers ruled out every
// candidate with backtracking off or exhausted).
type ResultBody struct {
	Target          string   `json:"target,omitempty"`
	Candidates      []string `json:"candidates,omitempty"`
	Questions       int      `json:"questions"`
	Interactions    int      `json:"interactions"`
	Backtracks      int      `json:"backtracks"`
	SelectionTimeUS int64    `json:"selection_time_us"`
	Error           string   `json:"error,omitempty"`
}

// ResultResponse reports a session's outcome (GET
// /v1/sessions/{id}/result): final once Done, otherwise a progress
// snapshot.
type ResultResponse struct {
	SessionID string `json:"session_id"`
	Done      bool   `json:"done"`
	ResultBody
}

// CollectionInfo describes one registered collection (GET /v1/collections).
type CollectionInfo struct {
	Name string `json:"name"`
	Sets int    `json:"sets"`
	// Tree reports whether a prebuilt decision tree is registered, i.e.
	// whether CreateSessionRequest.Tree is available.
	Tree bool `json:"tree"`
}

// CreateBatchRequest configures a batch of discovery sessions over a
// registered collection (POST /v1/collections/{collection}/batches): one
// member per seed, all under the same engine options and one strategy
// instance, so members at the same candidate-set state share one selection
// through the selection memo. Prebuilt-tree walks are not batchable — their
// per-question cost is already constant.
type CreateBatchRequest struct {
	// Seeds holds one entry per member: its initial example entities. An
	// empty object ({}) starts that member from the whole collection.
	Seeds []BatchSeed `json:"seeds"`
	SessionConfig
}

// BatchSeed is one member's starting point.
type BatchSeed struct {
	Initial []string `json:"initial,omitempty"`
}

// BatchQuestionResponse is the per-member interaction state of a batch,
// returned by create-batch, get-questions and post-answers. Done is true
// once every member has finished.
type BatchQuestionResponse struct {
	BatchID string           `json:"batch_id"`
	Done    bool             `json:"done"`
	Members []MemberQuestion `json:"members"`
	// State carries the batch's portable snapshot when the request asked
	// for it with ?include_state=1; see QuestionResponse.State.
	State []byte `json:"state,omitempty"`
}

// MemberQuestion is one member's pending interaction; the
// Entity/Subset/Confirm semantics are those of QuestionResponse. Error
// reports a rejected reply from the answers POST that produced this
// response (the other members' replies still applied).
type MemberQuestion struct {
	Member    int      `json:"member"`
	Done      bool     `json:"done"`
	Entity    string   `json:"entity,omitempty"`
	Confirm   string   `json:"confirm,omitempty"`
	Subset    []string `json:"subset,omitempty"`
	Semantics string   `json:"semantics,omitempty"`
	Questions int      `json:"questions"`
	Error     string   `json:"error,omitempty"`
}

// BatchAnswerRequest applies one round of replies (POST
// /v1/batches/{id}/answers): at most one answer per live member. Answers
// for distinct members may arrive in any order and across any number of
// POSTs; members share selections through the memo either way.
type BatchAnswerRequest struct {
	Answers []MemberAnswerRequest `json:"answers"`
}

// MemberAnswerRequest is one member's reply; Answer/Entity/Confirm/Subset
// have AnswerRequest semantics (the assertion fields, when set, pin which
// question is being answered so retried POSTs cannot land on the wrong
// one).
type MemberAnswerRequest struct {
	Member    int      `json:"member"`
	Answer    string   `json:"answer"`
	Entity    string   `json:"entity,omitempty"`
	Confirm   string   `json:"confirm,omitempty"`
	Subset    []string `json:"subset,omitempty"`
	Semantics string   `json:"semantics,omitempty"`
}

// BatchResultsResponse reports every member's outcome (GET
// /v1/batches/{id}/results) plus the batch's amortisation counters.
type BatchResultsResponse struct {
	BatchID string         `json:"batch_id"`
	Done    bool           `json:"done"`
	Members []MemberResult `json:"members"`
	// SelectionsComputed / SelectionsShared count the members' strategy
	// selections computed versus served by the selection memo — the measure
	// of how much work sharing saved over independent computation.
	SelectionsComputed int64 `json:"selections_computed"`
	SelectionsShared   int64 `json:"selections_shared"`
}

// MemberResult is one member's ResultResponse-shaped outcome.
type MemberResult struct {
	Member int  `json:"member"`
	Done   bool `json:"done"`
	ResultBody
}

// StateResponse carries a resource's portable state (GET
// /v1/sessions/{id}/state, GET /v1/batches/{id}/state): an opaque versioned
// snapshot of the suspended discovery (base64 in JSON), plus the registry
// name of the collection it runs over and the resource kind. Feed the same
// fields back through ImportStateRequest — on this server or any other one
// holding the collection — to resume.
type StateResponse struct {
	SessionID  string `json:"session_id,omitempty"`
	BatchID    string `json:"batch_id,omitempty"`
	Collection string `json:"collection"`
	Kind       string `json:"kind"`
	State      []byte `json:"state"`
}

// ImportStateRequest restores a resource from exported state (PUT
// /v1/sessions/{id}/state, PUT /v1/batches/{id}/state), under the ID in the
// URL. The import is idempotent: re-PUTting the same state under the same
// ID replaces the entry, so a migration retried after a lost response
// converges.
type ImportStateRequest struct {
	Collection string `json:"collection"`
	State      []byte `json:"state"`
}

// HealthzResponse answers the liveness probe (GET /v1/healthz).
type HealthzResponse struct {
	Status string `json:"status"`
}

// StatsResponse reports serving-load and registry statistics (GET
// /v1/stats) for routers, load balancers and dashboards probing backends.
type StatsResponse struct {
	Status        string `json:"status"`
	UptimeSeconds int64  `json:"uptime_seconds"`
	// Sessions and Batches count live store entries; LiveDiscoveries is the
	// capacity weight (a batch counts every member), the number compared
	// against MaxSessions.
	Sessions        int               `json:"sessions"`
	Batches         int               `json:"batches"`
	LiveDiscoveries int               `json:"live_discoveries"`
	MaxSessions     int               `json:"max_sessions"`
	TTLSeconds      int64             `json:"ttl_seconds"`
	SlidingTTL      bool              `json:"sliding_ttl"`
	Collections     []CollectionStats `json:"collections"`
}

// CollectionStats describes one registered collection's size and the
// effectiveness of its shared selection cache.
type CollectionStats struct {
	Name     string     `json:"name"`
	Sets     int        `json:"sets"`
	Entities int        `json:"entities"`
	Tree     bool       `json:"tree"`
	Cache    CacheStats `json:"cache"`
}

// CacheStats reports a collection's selection-cache fabric counters: how many
// selections were served from the collection-wide memo (Hits) or waited on a
// concurrent computation (Coalesced) instead of being computed, and how the
// bounded store is doing (Entries, Evictions).
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Coalesced int64 `json:"coalesced"`
	Entries   int   `json:"entries"`
}

// CacheShardImportResponse acknowledges PUT /v1/cache/shard: how many warm
// selection-cache entries were merged into the named collection's memo.
type CacheShardImportResponse struct {
	Collection string `json:"collection"`
	Imported   int    `json:"imported"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}
