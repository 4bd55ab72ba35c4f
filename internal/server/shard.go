package server

// Shard-process mode (Config.ShardCount > 0): this process serves one
// partition of a sharded deployment. It loads the bundle, slices out
// the rows vecstore.ShardOf routes to its ShardID (snapshot.SliceShard
// — the same partition an in-process coordinator computes), serves the
// standard public read API over that slice, and exposes the
// /shard/v1/* fan-out API its router consumes:
//
//	POST /shard/v1/search  — top-k per query vector (a binary frame)
//	POST /shard/v1/insert  — append a router-assigned global row
//	POST /shard/v1/delete  — tombstone a global row
//
// The router scores the other read, similarity, from its own copy of
// the rows, so it needs no route here.
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
// /v1/reload as 501 and rejects WAL. It compacts like any server: a
// compaction renumbers only the coordinator's shard-local slots, so the
// row IDs the globals table maps from never move.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"

	"v2v/internal/snapshot"
	"v2v/internal/vecstore"
)

// shardState is the partition identity of a shard process: which slice
// it serves and the local→global row mapping, from the IDs of its
// one-shard coordinator, which compaction leaves in place. globals is append-only
// and guarded by the generation's mu (reads under RLock, inserts under
// Lock); shard mode never swaps generations, so the mapping's identity
// is stable for the process lifetime.
type shardState struct {
	id, of  int
	globals []int // ascending global IDs; globals[local] = global
}

// toGlobal maps local-ID results, which the caller owns, to global
// IDs in place. Locals ascend with globals, so the (score desc, ID
// asc) result order is preserved by construction — the property the
// router's merge depends on.
func (sh *shardState) toGlobal(res []vecstore.Result) []vecstore.Result {
	for i := range res {
		res[i].ID = sh.globals[res[i].ID]
	}
	return res
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
	// Compactions counts the shard's completed compactions; a router
	// sums them into its own /stats.
	Compactions uint64 `json:"compactions"`
	// MaxBatch is the most query rows this shard accepts in one search
	// frame; the router caps the frames it shares at it.
	MaxBatch int `json:"max_batch"`
}

// shardInfo snapshots the shard identity block, nil when this process
// is not a shard.
func (s *Server) shardInfo() *ShardInfo {
	if s.shard == nil {
		return nil
	}
	st := s.state.Load()
	return &ShardInfo{
		ID:          s.shard.id,
		Of:          s.shard.of,
		Rows:        st.sharded.Rows(),
		Live:        st.sharded.Live(),
		Deleted:     st.sharded.Dead(),
		Epoch:       st.epoch.Load(),
		Compactions: st.sharded.ShardStats()[0].Compactions,
		MaxBatch:    s.maxBatch(),
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
	// The slice is served as a one-shard coordinator; per-shard build
	// randomness matches the in-process coordinator's derivation.
	scfg.Index.Shards = 0
	scfg.Index.Seed = vecstore.ShardSeed(cfg.Index.Seed, cfg.ShardID)
	prebuilt, err := bindGraphs(slice.Model.Store(), slice.Shards, scfg.Index)
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
	s.mux.HandleFunc("/shard/v1/insert", s.instrument("shard_insert", s.handleShardInsert))
	s.mux.HandleFunc("/shard/v1/delete", s.instrument("shard_delete", s.handleShardDelete))
}

// ---- Fan-out wire types (shared with the router in remote.go, so
// the wire cannot drift between router and shard). Every vector
// crosses as the little-endian IEEE-754 bits of its values: exact by
// construction. /shard/v1/search, the read route, is a binary frame
// both ways (below); the write routes are JSON, with the inserted
// vector as base64 bits and IDs and epochs as JSON numbers. Errors are
// JSON on every route. There is one encoding per route and no
// negotiation: a peer that sends anything else gets a 400. ----

// packVec returns the wire form of v.
func packVec(v []float32) []byte {
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
func unpackVec(what string, b []byte, dim int) ([]float32, error) {
	v := make([]float32, dim)
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

// The search frame, all little-endian. Request:
//
//	k u32 | n u32 | n × dim float32 bits
//
// Response, per query in request order:
//
//	count u32 | count × (id u64 | score float64 bits)
//
// with IDs global and each list best first.

// appendSearchHeader appends a search request's header, n queries at
// k, to dst; the n rows follow it.
func appendSearchHeader(dst []byte, k, n int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(k))
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// appendSearchRow appends one query row's float32 bits to dst.
func appendSearchRow(dst []byte, q []float32) []byte {
	for _, x := range q {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
	}
	return dst
}

// readSearchFrame reads a search request of 1..maxN dim-element
// vectors at k in 1..maxK. Every other body, and a vector holding a
// NaN or an infinity, is a 400; it allocates only for bytes that
// arrive.
func readSearchFrame(r io.Reader, dim, maxN, maxK int) (int, [][]float32, error) {
	b, err := io.ReadAll(io.LimitReader(r, 8+4*int64(maxN)*int64(dim)+1))
	if err != nil {
		return 0, nil, errBadRequest("search frame: %v", err)
	}
	if len(b) < 8 {
		return 0, nil, errBadRequest("search frame of %d bytes has no 8-byte header", len(b))
	}
	k, n := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])
	if k == 0 || uint64(k) > uint64(maxK) {
		return 0, nil, errBadRequest("invalid k %d", k)
	}
	if n == 0 || uint64(n) > uint64(maxN) {
		return 0, nil, errBadRequest("batch of %d queries, limit %d", n, maxN)
	}
	if want := 8 + 4*int(n)*dim; len(b) != want {
		return 0, nil, errBadRequest("search frame of %d bytes (or more), %d queries of dimension %d take %d", len(b), n, dim, want)
	}
	vs := make([]float32, int(n)*dim)
	for i := range vs {
		if vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[8+4*i:])); vs[i]-vs[i] != 0 {
			return 0, nil, errBadRequest("vector %d: component %d is not finite", i/dim, i%dim)
		}
	}
	qs := make([][]float32, n)
	for i := range qs {
		qs[i] = vs[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return int(k), qs, nil
}

// appendSearchResults appends the search response for lists to dst.
func appendSearchResults(dst []byte, lists [][]vecstore.Result) []byte {
	size := 0
	for _, list := range lists {
		size += 4 + 16*len(list)
	}
	dst = slices.Grow(dst, size)
	for _, list := range lists {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(list)))
		for _, h := range list {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(h.ID))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(h.Score))
		}
	}
	return dst
}

// decodeSearchResults decodes a search response of n lists. A count
// past what the remaining bytes hold is refused before anything is
// allocated for it, as are an ID that is not a non-negative int, a
// score that is not finite, and bytes left over.
func decodeSearchResults(b []byte, n int) ([][]vecstore.Result, error) {
	out := make([][]vecstore.Result, n)
	for q := range out {
		if len(b) < 4 {
			return nil, fmt.Errorf("search reply ends before list %d", q)
		}
		count := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint64(count) > uint64(len(b))/16 {
			return nil, fmt.Errorf("search reply list %d claims %d results in %d bytes", q, count, len(b))
		}
		list := make([]vecstore.Result, count)
		for i := range list {
			id, score := binary.LittleEndian.Uint64(b), math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
			b = b[16:]
			if id > math.MaxInt {
				return nil, fmt.Errorf("search reply list %d: ID %d out of range", q, id)
			}
			if score-score != 0 {
				return nil, fmt.Errorf("search reply list %d: score of row %d is not finite", q, id)
			}
			list[i] = vecstore.Result{ID: int(id), Score: score}
		}
		out[q] = list
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("search reply carries %d bytes past its last list", len(b))
	}
	return out, nil
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

// handleShardSearch answers a search frame: every query vector's top
// k on this shard, in global IDs.
func (s *Server) handleShardSearch(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodPost {
		return &httpError{code: http.StatusMethodNotAllowed, msg: "use POST"}
	}
	// The router asks for the handler-level k+1 (self-stripping happens
	// at the merge), so accept one past the public cap. A shard never
	// swaps generations, so the dimension is read before the lock.
	k, qs, err := readSearchFrame(r.Body, s.state.Load().sharded.Dim(), s.maxBatch(), s.maxK()+1)
	if err != nil {
		return err
	}
	st, unlock := s.readState()
	defer unlock()
	if err := ctxExpired(r.Context()); err != nil {
		return err
	}
	lists := st.sharded.SearchBatch(qs, k)
	for i, res := range lists {
		lists[i] = s.shard.toGlobal(res)
	}
	buf := appendSearchResults(nil, lists)
	unlock()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.Write(buf)
	return nil
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
	v, err := unpackVec("vector", req.Vector, st.sharded.Dim())
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
