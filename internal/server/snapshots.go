package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"algrec/internal/obsv"
)

// snapshotRequest is the POST /v1/dbs/{name}/snapshot and .../restore body.
type snapshotRequest struct {
	Snapshot string `json:"snapshot"`
}

// snapshotResponse is both endpoints' success body.
type snapshotResponse struct {
	OK       bool   `json:"ok"`
	Name     string `json:"name"`
	Snapshot string `json:"snapshot"`
	Version  uint64 `json:"version"`
}

// handleSnapshot serves POST /v1/dbs/{name}/snapshot: labels the database's
// current contents as a restorable version. Snapshots are copy-on-write —
// on both backends, taking one retains the current version in O(1); disk
// databases also checkpoint and compact their store.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.handleSnapshotOp(w, r, "snapshot", s.reg.snapshot)
}

// handleRestore serves POST /v1/dbs/{name}/restore: replaces the database's
// contents with a labeled snapshot's, bumping the version and closing live
// subscriptions with reason "db-restored". The snapshot remains.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	s.handleSnapshotOp(w, r, "restore", s.reg.restore)
}

func (s *Server) handleSnapshotOp(w http.ResponseWriter, r *http.Request, route string, op func(name, label string) (uint64, error)) {
	start := time.Now()
	ev := obsv.ServerStats{Route: route}
	defer func() {
		ev.WallNS = time.Since(start).Nanoseconds()
		s.col.Server(ev)
	}()
	fail := func(code, msg string) {
		ev.Code = code
		writeError(w, code, msg)
	}
	if s.draining.Load() {
		fail(codeShuttingDown, fmt.Sprintf("the server is draining and refuses new %s requests", route))
		return
	}
	name := r.PathValue("name")
	var req snapshotRequest
	if code, msg := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); code != "" {
		fail(code, msg)
		return
	}
	if req.Snapshot == "" {
		fail(codeBadRequest, "missing \"snapshot\" field (the snapshot label)")
		return
	}
	version, err := op(name, req.Snapshot)
	if err != nil {
		switch {
		case errors.Is(err, errDBNotFound):
			fail(codeUnknownDB, err.Error())
		case errors.Is(err, errSnapshotNotFound):
			fail(codeUnknownSnap, err.Error())
		default:
			fail(codeStorage, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, snapshotResponse{OK: true, Name: name, Snapshot: req.Snapshot, Version: version})
}
