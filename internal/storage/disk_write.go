package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// This file is the disk backend's write path: Apply (log append), Snapshot
// (generation compaction), and the Store plumbing around them.

// Rel implements Store.
func (ds *DiskStore) Rel(name string) (Relation, bool, error) {
	if err := ds.err(); err != nil {
		return nil, false, err
	}
	return ds.mem.Rel(name)
}

// Rels implements Store.
func (ds *DiskStore) Rels() ([]RelInfo, error) {
	if err := ds.err(); err != nil {
		return nil, err
	}
	return ds.mem.Rels()
}

// err returns the store's sticky I/O failure, if any.
func (ds *DiskStore) err() error {
	ds.mem.mu.RLock()
	defer ds.mem.mu.RUnlock()
	return ds.broken
}

// Apply implements Store: the batch is framed in memory (new dictionary
// entries first, then one recBatch record), appended to the log with a
// single write, and only then applied to the resident rows — so the visible
// state never runs ahead of the log, and a torn write at any byte still
// recovers to a batch boundary.
func (ds *DiskStore) Apply(b Batch) error {
	if err := b.validate(); err != nil {
		return err
	}
	ds.mem.mu.Lock()
	defer ds.mem.mu.Unlock()
	if err := ds.broken; err != nil {
		return err
	}
	if ds.closed {
		return fmt.Errorf("storage: disk store is closed")
	}
	if err := ds.mem.checkArities(b); err != nil {
		return err
	}

	// Encode: dictionary growth frames, then the batch frame, into a buffer
	// with room for the batch's rows.
	rowBytes := 0
	for _, m := range b {
		rowBytes += 4 * m.Arity * (len(m.Delete) + len(m.Insert))
	}
	scratch := make([]byte, 0, rowBytes+1024)
	ms := make([]encodedMutation, len(b))
	for i, m := range b {
		em := encodedMutation{Rel: m.Rel, Arity: m.Arity, Reset: m.Reset, Drop: m.Drop}
		var err error
		if em.Delete, err = ds.encodeRows(m.Delete, m.Arity, &scratch); err != nil {
			return err
		}
		if em.Insert, err = ds.encodeRows(m.Insert, m.Arity, &scratch); err != nil {
			return err
		}
		ms[i] = em
	}
	scratch, at := beginFrame(scratch, recBatch)
	scratch = endFrame(appendBatchRecord(scratch, ms), at)

	// One write, optional fsync; an I/O failure poisons the store (the
	// on-disk tail is now unknown, but reopening recovers the durable
	// prefix).
	if _, err := ds.logF.WriteAt(scratch, ds.logOff); err != nil {
		ds.broken = err
		return err
	}
	if ds.opt.Sync {
		if err := ds.logF.Sync(); err != nil {
			ds.broken = err
			return err
		}
	}
	ds.logOff += int64(len(scratch))
	ds.deadRows += ds.mem.apply(b)
	ds.maybeCompact()
	return nil
}

// encodeRows translates ID rows to vid rows sharing one backing array,
// appending dictionary frames to scratch for values the store has not yet
// persisted. A new value's vid is assigned eagerly; if the batch's write
// later fails the store is poisoned, so the optimistic assignment can never
// leak into a live store whose log lacks the definition.
func (ds *DiskStore) encodeRows(rows [][]intern.ID, arity int, scratch *[]byte) ([][]uint32, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	flat := make([]uint32, len(rows)*arity)
	out := make([][]uint32, len(rows))
	for i, row := range rows {
		vr := flat[i*arity : (i+1)*arity : (i+1)*arity]
		for j, id := range row {
			var err error
			if *scratch, vr[j], err = ds.define(*scratch, ds.mem.in, id); err != nil {
				return nil, err
			}
		}
		out[i] = vr
	}
	return out, nil
}

// dictionary numbers the values a store's segments define: vid i is the
// process intern ID vids[i], which the i-th recValue frame defines.
type dictionary struct {
	vids  []intern.ID          // store-vid -> process intern ID
	vidOf map[intern.ID]uint32 // process intern ID -> store-vid
}

// define returns id's vid, first appending to b the recValue frames that
// define it if it is new: bottom-up, those of a tuple's or set's new
// children, then its own.
func (d *dictionary) define(b []byte, in *intern.Interner, id intern.ID) ([]byte, uint32, error) {
	if vid, ok := d.vidOf[id]; ok {
		return b, vid, nil
	}
	var buf [8]uint32
	kids := buf[:0]
	for _, c := range in.Elems(id) {
		var vid uint32
		var err error
		if b, vid, err = d.define(b, in, c); err != nil {
			return b, 0, err
		}
		kids = append(kids, vid)
	}
	b, err := appendValueFrame(b, in, id, kids)
	if err != nil {
		return b, 0, err
	}
	vid := uint32(len(d.vids))
	d.vids = append(d.vids, id)
	d.vidOf[id] = vid
	return b, vid, nil
}

// appendValueFrame appends the recValue frame that defines id to b, given
// the vids of a tuple's or set's children. An integer is written from its
// ID, without boxing it.
func appendValueFrame(b []byte, in *intern.Interner, id intern.ID, kids []uint32) ([]byte, error) {
	b, at := beginFrame(b, recValue)
	if x, ok := in.IntOf(id); ok {
		return endFrame(putVarint(append(b, byte(value.KindInt)), x), at), nil
	}
	rec, err := appendValueRecord(b, in.Lookup(id), func(i int) uint64 { return uint64(kids[i]) }, len(kids))
	if err != nil {
		return b[:at], err
	}
	return endFrame(rec, at), nil
}

// maybeCompact starts a background compaction when dead log rows outnumber
// live ones (above a floor). Called with the write lock held.
func (ds *DiskStore) maybeCompact() {
	if ds.compacting || ds.closed || ds.deadRows < compactMinDead {
		return
	}
	live := 0
	for _, r := range ds.mem.rels {
		live += r.r.LiveLen()
	}
	if ds.deadRows <= live {
		return
	}
	ds.compacting = true
	ds.compWG.Add(1)
	go func() {
		defer ds.compWG.Done()
		ds.mem.mu.Lock()
		defer ds.mem.mu.Unlock()
		ds.compacting = false
		if ds.closed || ds.broken != nil {
			return
		}
		if err := ds.snapshotLocked(); err != nil {
			ds.broken = err
		}
	}()
}

// Snapshot implements Store: write a checkpoint of the current state as a
// new generation and drop the old files. Reopening afterwards replays
// nothing.
func (ds *DiskStore) Snapshot() error {
	ds.mem.mu.Lock()
	defer ds.mem.mu.Unlock()
	if err := ds.broken; err != nil {
		return err
	}
	if ds.closed {
		return fmt.Errorf("storage: disk store is closed")
	}
	return ds.snapshotLocked()
}

// snapshotLocked writes generation gen+1: a snapshot segment holding a
// re-emitted dictionary (only values live rows reach, re-numbered densely)
// and every relation's live rows in scan order, then an empty log, then the
// CURRENT flip. Only after the flip are the dictionary and the log swapped,
// the resident relations compacted and the old generation deleted — a crash
// anywhere before the rename leaves the old generation fully intact.
func (ds *DiskStore) snapshotLocked() error {
	newGen := ds.gen + 1
	snapPath := filepath.Join(ds.dir, segName("snap", newGen))
	f, err := os.OpenFile(snapPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error { f.Close(); os.Remove(snapPath); return err }
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := w.WriteString(segMagic); err != nil {
		return fail(err)
	}

	// New dictionary, populated as rows are re-encoded. Its frames gather in
	// one reused buffer, written out before each relation's frame (and
	// whenever it fills), which is built in a reused buffer too.
	dict := dictionary{vidOf: map[intern.ID]uint32{}}
	var defs, rel []byte

	// Per relation, in name order: define the values its live rows reach,
	// then write one recRel frame of the rows, straight from the resident
	// relation.
	names := make([]string, 0, len(ds.mem.rels))
	for name := range ds.mem.rels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := ds.mem.rels[name].r
		var at int
		rel, at = beginFrame(slices.Grow(rel[:0], 64+len(name)+4*r.Arity()*r.LiveLen()), recRel)
		rel = putUvarint(rel, uint64(len(name)))
		rel = append(rel, name...)
		rel = putUvarint(rel, uint64(r.Arity()))
		rel = putUvarint(rel, uint64(r.LiveLen()))
		var scanErr error
		r.Scan(func(_ int32, row []intern.ID) bool {
			for _, id := range row {
				var vid uint32
				if defs, vid, scanErr = dict.define(defs, ds.mem.in, id); scanErr != nil {
					return false
				}
				rel = binary.LittleEndian.AppendUint32(rel, vid)
			}
			// Written out as it fills, the buffer stays small: grown to a
			// whole dictionary it raised the bulk workload's peak RSS by
			// ~2.4 MB.
			if len(defs) >= 1<<16 {
				_, scanErr = w.Write(defs)
				defs = defs[:0]
			}
			return scanErr == nil
		})
		if scanErr != nil {
			return fail(scanErr)
		}
		if _, err := w.Write(defs); err != nil {
			return fail(err)
		}
		defs = defs[:0]
		if _, err := w.Write(endFrame(rel, at)); err != nil {
			return fail(err)
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(snapPath)
		return err
	}

	// New empty log, synced before the flip.
	logPath := filepath.Join(ds.dir, segName("log", newGen))
	lf, err := os.OpenFile(logPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		os.Remove(snapPath)
		return err
	}
	if _, err := lf.Write([]byte(segMagic)); err == nil {
		err = lf.Sync()
	}
	if err == nil {
		err = writeCurrent(ds.dir, newGen)
	}
	if err != nil {
		lf.Close()
		os.Remove(logPath)
		os.Remove(snapPath)
		return err
	}

	// The flip is durable; swap the dictionary and the log, compact the
	// resident rows and drop the old files.
	oldLog, oldGen := ds.logF, ds.gen
	ds.gen = newGen
	ds.logF, ds.logOff = lf, int64(len(segMagic))
	ds.dictionary = dict
	ds.deadRows = 0
	ds.mem.compact()
	oldLog.Close()
	os.Remove(filepath.Join(ds.dir, segName("snap", oldGen)))
	os.Remove(filepath.Join(ds.dir, segName("log", oldGen)))
	return nil
}

// Close implements Store. It waits for any background compaction, then
// closes the log. Unsynced log writes are flushed to the OS already (Apply
// writes through), so close loses nothing short of a machine crash.
func (ds *DiskStore) Close() error {
	ds.mem.mu.Lock()
	if ds.closed {
		ds.mem.mu.Unlock()
		return nil
	}
	ds.closed = true
	ds.mem.mu.Unlock()
	ds.compWG.Wait()
	ds.mem.mu.Lock()
	defer ds.mem.mu.Unlock()
	var err error
	if !ds.opt.Sync {
		err = ds.logF.Sync() // best-effort durability on clean close
	}
	if e := ds.logF.Close(); err == nil {
		err = e
	}
	return err
}

// writeCurrent atomically publishes gen as the directory's current
// generation: tmp write, fsync, rename, directory fsync.
func writeCurrent(dir string, gen uint64) error {
	tmp := filepath.Join(dir, currentName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "%d\n", gen); err == nil {
		err = f.Sync()
	}
	if e := f.Close(); err == nil {
		err = e
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, currentName)); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory (best effort; not all platforms support it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
