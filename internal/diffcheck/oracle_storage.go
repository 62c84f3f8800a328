package diffcheck

import (
	"fmt"
	"os"
	"reflect"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/ivm"
	"algrec/internal/query"
	"algrec/internal/randgen"
	"algrec/internal/storage"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// The dlog-storage oracle pins the pluggable storage layer's cross-backend
// contract (internal/storage): a random fact insert/delete schedule, written
// through storage.FactBatch — the server's own encoder — against the memory
// backend and the disk backend, must leave the two stores bit-for-bit
// identical after every step: same relations, same arities, same rows in the
// same scan order. At the end, both must materialize to the database
// ivm.ApplyDB derives from the schedule, the datalog program must evaluate
// identically over both, and closing and reopening the disk store (the
// recovery path) must reproduce the state exactly.

// checkDlogStorage replays the schedule through both backends.
func checkDlogStorage(p *datalog.Program, sched []randgen.FactBatch) error {
	const oracle = "dlog-storage"
	in := intern.Global()
	mem := storage.NewMem(in)
	dir, err := os.MkdirTemp("", "algrec-diffcheck-storage-*")
	if err != nil {
		return nil // environment trouble, not a divergence
	}
	defer os.RemoveAll(dir)
	disk, err := storage.OpenDisk(dir, storage.DiskOptions{})
	if err != nil {
		return diverge(oracle, "opening an empty disk store failed: %v", err)
	}
	defer func() {
		if disk != nil {
			disk.Close()
		}
	}()

	db := algebra.DB{}
	for step, b := range sched {
		// Each backend's batch is derived from its own current shapes; equal
		// states must derive equal batches and stay equal.
		after := ivm.ApplyDB(db, b.Insert, b.Delete)
		del, ins := ivm.ElemsByPred(b.Delete), ivm.ElemsByPred(b.Insert)
		errM := writeFacts(mem, in, del, ins, after)
		errD := writeFacts(disk, in, del, ins, after)
		if (errM == nil) != (errD == nil) {
			return diverge(oracle, "step %d (%s): memory err %v, disk err %v", step, b, errM, errD)
		}
		if errM != nil {
			continue // agreeing rejection
		}
		db = after
		if err := diffStores(oracle, fmt.Sprintf("step %d (%s)", step, b), mem, disk); err != nil {
			return err
		}
	}

	// The materialized databases agree with each other and with the
	// schedule's, and the program evaluates identically over both.
	dbM, errM := storage.LoadDB(mem, in, 1)
	dbD, errD := storage.LoadDB(disk, in, 1)
	if done, err := pairErr(oracle, "memory load", "disk load", errM, errD); done {
		return err
	}
	if err := diffSetMaps(oracle, "materialized database", dbM, dbD); err != nil {
		return err
	}
	if err := diffSetMaps(oracle, "memory store against ivm.ApplyDB", dbM, db); err != nil {
		return err
	}
	plan := &query.Plan{
		Language:  query.LangDatalog,
		Semantics: query.SemStratified,
		Source:    p.String(),
		Program:   p,
	}
	opts := query.Options{Budget: ExprBudget, Ground: GroundBudget}
	outM, errM := query.Execute(plan, algebra.DB(dbM), opts)
	outD, errD := query.Execute(plan, algebra.DB(dbD), opts)
	if done, err := pairErr(oracle, "evaluation over memory", "evaluation over disk", errM, errD); done {
		return err
	}
	if !reflect.DeepEqual(outM, outD) {
		return diverge(oracle, "program outcome differs over equal databases:\nmemory: %s\ndisk:   %s",
			renderJSON(outM.Datalog), renderJSON(outD.Datalog))
	}

	// Recovery: reopen the disk store and compare against memory again.
	if err := disk.Close(); err != nil {
		return diverge(oracle, "closing the disk store failed: %v", err)
	}
	disk = nil
	disk2, err := storage.OpenDisk(dir, storage.DiskOptions{})
	if err != nil {
		return diverge(oracle, "reopening the disk store failed: %v", err)
	}
	defer disk2.Close()
	return diffStores(oracle, "after reopen", mem, disk2)
}

// writeFacts writes one fact batch through storage.FactBatch, as the server
// does.
func writeFacts(st storage.Store, in *intern.Interner, del, ins map[string][]value.Value, after algebra.DB) error {
	b, err := storage.FactBatch(st, in, del, ins, after)
	if err != nil || len(b) == 0 {
		return err
	}
	return st.Apply(b)
}

// diffStores compares two stores' observable state: relation listings, then
// every relation's rows in scan order.
func diffStores(oracle, what string, a, b storage.Store) error {
	ia, errA := a.Rels()
	ib, errB := b.Rels()
	if errA != nil || errB != nil {
		return diverge(oracle, "%s: listing failed: %v / %v", what, errA, errB)
	}
	if !reflect.DeepEqual(ia, ib) {
		return diverge(oracle, "%s: relation listings differ:\n  left:  %+v\n  right: %+v", what, ia, ib)
	}
	for _, info := range ia {
		ra, _, errA := a.Rel(info.Name)
		rb, _, errB := b.Rel(info.Name)
		if errA != nil || errB != nil {
			return diverge(oracle, "%s: opening %q failed: %v / %v", what, info.Name, errA, errB)
		}
		rowsA, errA := scanRows(ra)
		rowsB, errB := scanRows(rb)
		if errA != nil || errB != nil {
			return diverge(oracle, "%s: scanning %q failed: %v / %v", what, info.Name, errA, errB)
		}
		if !reflect.DeepEqual(rowsA, rowsB) {
			return diverge(oracle, "%s: relation %q rows differ:\n  left:  %v\n  right: %v",
				what, info.Name, rowsA, rowsB)
		}
	}
	return nil
}

// scanRows collects a relation's rows in scan order.
func scanRows(r storage.Relation) ([][]intern.ID, error) {
	var rows [][]intern.ID
	err := r.Scan(func(row []intern.ID) bool {
		cp := make([]intern.ID, len(row))
		copy(cp, row)
		rows = append(rows, cp)
		return true
	})
	return rows, err
}
