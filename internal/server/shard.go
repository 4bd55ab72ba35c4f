package server

// Shard-process mode (Config.ShardCount > 0): this process serves one
// partition of a sharded deployment. It loads the bundle, slices out
// the rows vecstore.ShardOf routes to its ShardID (snapshot.SliceShard
// — the same partition an in-process coordinator computes), serves the
// standard public read API over that slice, and exposes the
// /shard/v1/* fan-out API its router consumes:
//
//	POST /shard/v1/search  — top-k per query: this shard's rows by global
//	                         ID and/or query vectors (global IDs)
//	POST /shard/v1/scan    — exact float64 kernel scan (analogy)
//	POST /shard/v1/rows    — row data + squared norms by global ID
//	POST /shard/v1/insert  — append a router-assigned global row
//	POST /shard/v1/delete  — tombstone a global row
//
// A shard process is the same Server as any other: its slice is
// published as a one-shard coordinator, and these handlers — which sit
// behind the shard boundary, like the WAL checkpoint — call that
// coordinator directly. Everything the fan-out API answers is in
// global row IDs: the shard translates through its globals table
// (ascending — slice order at startup, monotonic router-assigned IDs
// after), so the router's merge sees exactly what the in-process
// coordinator's merge sees. Shard mode forces the public write
// endpoints read-only (writes enter through the router), serves
// /v1/reload as 501, rejects WAL, and disables compaction: a
// compaction would retire local row IDs and silently detach them from
// the global map.

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"sort"

	"v2v/internal/snapshot"
	"v2v/internal/vecstore"
	"v2v/internal/word2vec"
)

// shardState is the partition identity of a shard process: which slice
// it serves and the local→global row mapping. globals is append-only
// and guarded by the generation's mu (reads under RLock, inserts under
// Lock); shard mode never swaps generations, so the mapping's identity
// is stable for the process lifetime.
type shardState struct {
	id, of  int
	globals []int // ascending global IDs; globals[local] = global
}

// toGlobal maps local-ID results to global-ID results. Locals ascend
// with globals, so the (score desc, ID asc) result order is preserved
// by construction — the property the router's merge depends on.
func (sh *shardState) toGlobal(res []vecstore.Result) []vecstore.Result {
	out := make([]vecstore.Result, len(res))
	for i, h := range res {
		out[i] = vecstore.Result{ID: sh.globals[h.ID], Score: h.Score}
	}
	return out
}

// localOf finds the local row for a global ID (binary search — globals
// is always ascending).
func (sh *shardState) localOf(global int) (int, bool) {
	i := sort.SearchInts(sh.globals, global)
	if i < len(sh.globals) && sh.globals[i] == global {
		return i, true
	}
	return 0, false
}

// ShardInfo identifies a shard process's slice in /healthz and /stats.
// The router's health probe checks ID/Of/dim against its own
// configuration, so probing a wrong process (or a shard started with
// the wrong -shard-id) reads as down instead of healthy-with-garbage.
type ShardInfo struct {
	// ID and Of are the partition coordinates: this process serves
	// shard ID of an Of-way partition.
	ID int `json:"id"`
	Of int `json:"of"`
	// Rows, Live and Deleted count this shard's local rows.
	Rows    int `json:"rows"`
	Live    int `json:"live"`
	Deleted int `json:"deleted"`
	// Epoch counts accepted writes on this shard.
	Epoch uint64 `json:"epoch"`
}

// shardInfo snapshots the shard identity block, nil when this process
// is not a shard.
func (s *Server) shardInfo() *ShardInfo {
	if s.shard == nil {
		return nil
	}
	st := s.state.Load()
	return &ShardInfo{
		ID:      s.shard.id,
		Of:      s.shard.of,
		Rows:    st.backend.Rows(),
		Live:    st.backend.Live(),
		Deleted: st.backend.Dead(),
		Epoch:   st.epoch.Load(),
	}
}

// newShardProcess builds a shard-mode server (see the file comment).
func newShardProcess(cfg Config) (*Server, error) {
	if cfg.ShardID < 0 || cfg.ShardID >= cfg.ShardCount {
		return nil, fmt.Errorf("server: ShardID %d out of range [0, %d)", cfg.ShardID, cfg.ShardCount)
	}
	if cfg.WAL.Dir != "" {
		return nil, fmt.Errorf("server: WAL is not supported in shard mode (durability belongs to the bundle; restart the fleet from it)")
	}
	if err := cfg.Index.Validate(); err != nil {
		return nil, err
	}
	b, err := snapshot.LoadBundle(cfg.ModelPath)
	if err != nil {
		return nil, fmt.Errorf("server: loading bundle: %w", err)
	}
	slice, err := snapshot.SliceShard(b, cfg.ShardID, cfg.ShardCount)
	if err != nil {
		return nil, fmt.Errorf("server: slicing shard %d/%d: %w", cfg.ShardID, cfg.ShardCount, err)
	}
	total := b.Model.Vocab
	if slice.Model.Vocab == 0 {
		return nil, fmt.Errorf("server: shard %d owns no rows of this %d-row bundle (partition wider than the data)", cfg.ShardID, total)
	}
	// b is not used past this point, so the whole bundle (every row, every
	// shard's graph) is garbage while the slice's graph is copied into
	// the index's own storage, and the collector's first goal, which sets
	// the process's peak RSS, counts only what the shard keeps.
	scfg := cfg
	// Public writes enter through the router's hash routing; accepting
	// them here would put rows on the wrong shard.
	scfg.ReadOnly = true
	// A compaction would retire local row IDs and silently detach them
	// from the global map; tombstones are reclaimed by re-slicing a
	// fresh bundle instead.
	scfg.CompactFraction = -1
	// The slice is served as a one-shard coordinator; per-shard build
	// randomness matches the in-process coordinator's derivation.
	scfg.Index.Shards = 0
	scfg.Index.Seed = vecstore.ShardSeed(cfg.Index.Seed, cfg.ShardID)
	var graphs []*vecstore.HNSWGraph
	if slice.Graph != nil {
		graphs = []*vecstore.HNSWGraph{slice.Graph}
	}
	prebuilt, err := bindGraphs(slice.Model.Store(), graphs, scfg.Index)
	if err != nil {
		return nil, fmt.Errorf("server: binding shard %d bundled graph: %w", cfg.ShardID, err)
	}
	s, err := newFromModel(scfg, slice.Model, slice.Tokens, prebuilt, cfg.ModelPath)
	if err != nil {
		return nil, err
	}
	s.shard = &shardState{id: cfg.ShardID, of: cfg.ShardCount, globals: slice.Globals}
	s.registerShardAPI()
	s.logger.Printf("server: shard %d/%d: serving %d of %d rows", cfg.ShardID, cfg.ShardCount, slice.Model.Vocab, total)
	return s, nil
}

func (s *Server) registerShardAPI() {
	s.mux.HandleFunc("/shard/v1/search", s.instrument("shard_search", s.handleShardSearch))
	s.mux.HandleFunc("/shard/v1/scan", s.instrument("shard_scan", s.handleShardScan))
	s.mux.HandleFunc("/shard/v1/rows", s.instrument("shard_rows", s.handleShardRows))
	s.mux.HandleFunc("/shard/v1/insert", s.instrument("shard_insert", s.handleShardInsert))
	s.mux.HandleFunc("/shard/v1/delete", s.instrument("shard_delete", s.handleShardDelete))
}

// ---- Fan-out wire types (shared with remoteBackend in remote.go; the
// router and the shard marshal the same structs, so the JSON shape
// cannot drift between them). Every vector crosses as the IEEE-754
// bits of its values, little-endian, 4 bytes per float32 and 8 per
// float64, in a []byte that encoding/json carries as base64: exact by
// construction, and neither side prints or parses a decimal. Scalars
// (scores, squared norms, IDs) stay JSON numbers, whose
// shortest-round-trip form is exact for float64. There is one encoding
// and no negotiation: a peer that sends anything else gets a 400. ----

// packVec returns the wire form of v.
func packVec[T float32 | float64](v []T) []byte {
	b, err := binary.Append(make([]byte, 0, binary.Size(v)), binary.LittleEndian, v)
	if err != nil {
		panic(err) // cannot happen: float slices are fixed-size data
	}
	return b
}

// unpackVec decodes the wire form of a dim-element vector; what names
// it in the 400 that any other length gets, and that a NaN or an
// infinity gets: bits can carry what a JSON number cannot, and no
// endpoint has ever accepted one.
func unpackVec[T float32 | float64](what string, b []byte, dim int) ([]T, error) {
	v := make([]T, dim)
	if len(b) != binary.Size(v) {
		return nil, errBadRequest("%s is %d bytes, dimension %d takes %d", what, len(b), dim, binary.Size(v))
	}
	if _, err := binary.Decode(b, binary.LittleEndian, v); err != nil {
		return nil, errBadRequest("%s: %v", what, err)
	}
	for i, x := range v {
		if x-x != 0 {
			return nil, errBadRequest("%s: component %d is not finite", what, i)
		}
	}
	return v, nil
}

type shardSearchRequest struct {
	// The queries, at least one: Rows are global IDs of rows this shard
	// owns, searched with as stored; Vectors are float32 bits.
	Rows    []int    `json:"rows,omitempty"`
	Vectors [][]byte `json:"vectors,omitempty"`
	K       int      `json:"k"`
}

type shardSearchResponse struct {
	// Results holds one list per query, Rows' first, in global IDs.
	Results [][]vecstore.Result `json:"results"`
	// Rows are the stored rows of Rows (float32 bits), for the router
	// to send on to the other shards.
	Rows [][]byte `json:"rows,omitempty"`
}

type shardScanRequest struct {
	// Target is the exact float64 kernel target (e.g. b - a + c for
	// analogy) as float64 bits; the shard recomputes the target norm
	// locally from these exact values, so every shard scores with the
	// same float64 kernel the in-process scan uses.
	Target  []byte `json:"target"`
	Exclude []int  `json:"exclude,omitempty"` // global IDs to skip
	K       int    `json:"k"`
}

type shardScanResponse struct {
	Results []vecstore.Result `json:"results"` // global IDs
}

type shardRowsRequest struct {
	IDs []int `json:"ids"` // global IDs; every one must live here
}

type shardRowsResponse struct {
	Rows    [][]byte  `json:"rows"` // float32 bits, one entry per ID
	SqNorms []float64 `json:"sqnorms"`
}

type shardInsertRequest struct {
	ID     int    `json:"id"` // router-assigned global ID
	Token  string `json:"token"`
	Vector []byte `json:"vector"` // float32 bits
}

type shardInsertResponse struct {
	ID    int    `json:"id"`
	Epoch uint64 `json:"epoch"`
}

type shardDeleteRequest struct {
	ID int `json:"id"` // global ID
}

type shardDeleteResponse struct {
	ID    int    `json:"id"`
	Epoch uint64 `json:"epoch"`
}

// ---- Fan-out handlers ----------------------------------------------

func (s *Server) handleShardSearch(w http.ResponseWriter, r *http.Request) error {
	var req shardSearchRequest
	if err := decodePost(r, &req); err != nil {
		return err
	}
	n := len(req.Rows) + len(req.Vectors)
	if err := s.checkBatch(n, "rows' and 'vectors"); err != nil {
		return err
	}
	// The router asks for the handler-level k+1 (self-stripping happens
	// at the merge), so accept one past the public cap.
	if req.K <= 0 || req.K > s.maxK()+1 {
		return errBadRequest("invalid k %d", req.K)
	}
	st, unlock := s.readState()
	defer unlock()
	qs := make([][]float32, 0, n)
	resp := shardSearchResponse{Rows: make([][]byte, len(req.Rows))}
	for i, gid := range req.Rows {
		local, ok := s.shard.localOf(gid)
		if !ok {
			return errNotFound("row %d is not on shard %d/%d", gid, s.shard.id, s.shard.of)
		}
		// A tombstoned row still answers, as it does on /shard/v1/rows.
		qs = append(qs, st.sharded.Row(local))
		resp.Rows[i] = packVec(qs[i])
	}
	for i, b := range req.Vectors {
		q, err := unpackVec[float32](fmt.Sprintf("vector %d", i), b, st.backend.Dim())
		if err != nil {
			return err
		}
		qs = append(qs, q)
	}
	if err := ctxExpired(r.Context()); err != nil {
		return err
	}
	resp.Results = st.sharded.SearchBatch(qs, req.K)
	for i, res := range resp.Results {
		resp.Results[i] = s.shard.toGlobal(res)
	}
	return writeJSONUnlocked(w, unlock, resp)
}

// handleShardScan is the remote half of the coordinator's ScanExact:
// every live, non-excluded local row is scored with the analogy kernel
// against the router's exact float64 target, in ascending local — so
// ascending global — order: the same tie-breaking ScanExact's
// per-shard scan produces in-process, so the router's merge is
// bit-identical to the in-process merge.
func (s *Server) handleShardScan(w http.ResponseWriter, r *http.Request) error {
	var req shardScanRequest
	if err := decodePost(r, &req); err != nil {
		return err
	}
	st, unlock := s.readState()
	defer unlock()
	target, err := unpackVec[float64]("target", req.Target, st.backend.Dim())
	if err != nil {
		return err
	}
	if req.K <= 0 || req.K > s.maxK() {
		return errBadRequest("invalid k %d", req.K)
	}
	if err := ctxExpired(r.Context()); err != nil {
		return err
	}
	var exclude []int
	for _, gid := range req.Exclude {
		if local, ok := s.shard.localOf(gid); ok {
			exclude = append(exclude, local)
		}
	}
	res := st.sharded.ScanExact(word2vec.AnalogyKernel(target), exclude, req.K)
	return writeJSONUnlocked(w, unlock, shardScanResponse{Results: s.shard.toGlobal(res)})
}

func (s *Server) handleShardRows(w http.ResponseWriter, r *http.Request) error {
	var req shardRowsRequest
	if err := decodePost(r, &req); err != nil {
		return err
	}
	if len(req.IDs) == 0 {
		return errBadRequest("empty 'ids'")
	}
	// A pair batch fetches both rows of every pair in one call.
	if max := 2 * s.maxBatch(); len(req.IDs) > max {
		return errBadRequest("batch of %d exceeds limit %d", len(req.IDs), max)
	}
	st, unlock := s.readState()
	defer unlock()
	resp := shardRowsResponse{
		Rows:    make([][]byte, len(req.IDs)),
		SqNorms: make([]float64, len(req.IDs)),
	}
	for i, gid := range req.IDs {
		local, ok := s.shard.localOf(gid)
		if !ok {
			return errNotFound("row %d is not on shard %d/%d", gid, s.shard.id, s.shard.of)
		}
		// Tombstoned rows still answer: row contents are immutable, and
		// the in-process coordinator serves them the same way (handlers
		// never resolve a deleted token, so this only ever feeds pair
		// scores and fan-out queries for live rows).
		row, sq := st.sharded.RowNorm(local)
		resp.Rows[i], resp.SqNorms[i] = packVec(row), sq
	}
	return writeJSONUnlocked(w, unlock, resp)
}

func (s *Server) handleShardInsert(w http.ResponseWriter, r *http.Request) error {
	var req shardInsertRequest
	if err := decodePost(r, &req); err != nil {
		return err
	}
	st := s.lockCurrent()
	defer st.mu.Unlock()
	if err := ctxExpired(r.Context()); err != nil {
		return err
	}
	v, err := unpackVec[float32]("vector", req.Vector, st.backend.Dim())
	if err != nil {
		return err
	}
	sh := s.shard
	if got := vecstore.ShardOf(req.ID, sh.of); got != sh.id {
		return errBadRequest("row %d routes to shard %d, this is shard %d", req.ID, got, sh.id)
	}
	if n := len(sh.globals); n > 0 && req.ID <= sh.globals[n-1] {
		if req.ID == sh.globals[n-1] && st.tokens[len(st.tokens)-1] == req.Token {
			// Idempotent ack: this exact insert already landed (the
			// router lost the first acknowledgment).
			writeJSON(w, http.StatusOK, shardInsertResponse{ID: req.ID, Epoch: st.epoch.Load()})
			return nil
		}
		return &httpError{code: http.StatusConflict,
			msg: fmt.Sprintf("row %d is not past this shard's newest global row %d", req.ID, sh.globals[n-1])}
	}
	local, err := st.sharded.Insert(v)
	if err != nil {
		return err
	}
	st.tokens = append(st.tokens, req.Token)
	st.byToken[req.Token] = local
	sh.globals = append(sh.globals, req.ID)
	s.upserts.Add(1)
	epoch := st.epoch.Add(1)
	writeJSON(w, http.StatusOK, shardInsertResponse{ID: req.ID, Epoch: epoch})
	return nil
}

func (s *Server) handleShardDelete(w http.ResponseWriter, r *http.Request) error {
	var req shardDeleteRequest
	if err := decodePost(r, &req); err != nil {
		return err
	}
	st := s.lockCurrent()
	defer st.mu.Unlock()
	if err := ctxExpired(r.Context()); err != nil {
		return err
	}
	local, ok := s.shard.localOf(req.ID)
	if !ok {
		return errNotFound("row %d is not on shard %d/%d", req.ID, s.shard.id, s.shard.of)
	}
	if st.sharded.Deleted(local) {
		return errNotFound("row %d is already deleted", req.ID)
	}
	if err := st.sharded.Delete(local); err != nil {
		return err
	}
	// Keep the shard's own read API consistent: the tombstoned row's
	// token stops resolving here too.
	if tok := st.tokens[local]; st.byToken[tok] == local {
		delete(st.byToken, tok)
	}
	s.deletes.Add(1)
	epoch := st.epoch.Add(1)
	writeJSON(w, http.StatusOK, shardDeleteResponse{ID: req.ID, Epoch: epoch})
	return nil
}
