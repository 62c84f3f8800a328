package storage

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// DiskOptions configures a disk store.
type DiskOptions struct {
	// Sync fsyncs the log after every Apply. Off by default: the OS decides
	// when batches become durable, and recovery still sees a well-formed
	// prefix (frames are CRC-guarded); tests that assert exact durability
	// turn it on.
	Sync bool
}

// DiskStore is the on-disk backend: the memory backend's resident relations
// plus an append-only log of framed records (see codec.go) under a
// generation scheme —
//
//	CURRENT     the current generation number N (written via tmp+rename)
//	snap-N.seg  generation N's checkpoint: value dictionary + full relations
//	log-N.seg   generation N's log: dictionary growth + applied batches
//
// Every row is resident in a Mem, whose lock is the store's lock, so reads
// never touch the files. What the store keeps beside it is the value
// dictionary (store-vid <-> interned ID, both directions) and the log.
// Apply appends a batch to the log before applying it to the resident rows;
// OpenDisk rebuilds them from the snapshot plus the log. Snapshot() writes a
// new generation straight from the resident rows, in scan order — re-emitting
// only the values live rows still reach — then atomically flips CURRENT and
// deletes the old files; Apply triggers it in the background once dead log
// rows outnumber live ones.
type DiskStore struct {
	mem Mem // resident relations; mem.mu also guards every field below
	dir string
	opt DiskOptions

	broken error // sticky first I/O failure; every later call returns it
	closed bool

	gen    uint64
	logF   *os.File
	logOff int64 // append position == durable+buffered length of logF

	dictionary // the values the current generation's segments define

	deadRows   int // log rows no longer reachable (deleted, superseded, reset away)
	compacting bool
	compWG     sync.WaitGroup
}

const (
	currentName = "CURRENT"
	// compactMinDead is the floor below which dead rows never trigger a
	// background compaction.
	compactMinDead = 1 << 12
)

func segName(kind string, gen uint64) string {
	return fmt.Sprintf("%s-%d.seg", kind, gen)
}

// OpenDisk opens (or creates) the disk store rooted at dir, recovering to
// the last durable state: the current generation's snapshot plus the replay
// of the longest well-formed log prefix. A torn log tail is truncated away;
// a damaged snapshot or an undecodable record before the tail returns
// ErrCorrupt.
func OpenDisk(dir string, opt DiskOptions) (*DiskStore, error) {
	return openDisk(dir, opt, intern.Global())
}

// openDisk is OpenDisk on the given interner (a new process's is fresh).
func openDisk(dir string, opt DiskOptions, in *intern.Interner) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ds := &DiskStore{dir: dir, opt: opt, dictionary: dictionary{vidOf: map[intern.ID]uint32{}}}
	ds.mem.in, ds.mem.rels = in, map[string]*memRel{}
	cur, err := os.ReadFile(filepath.Join(dir, currentName))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		ds.gen = 1
		if err := ds.createLog(); err != nil {
			return nil, err
		}
		if err := writeCurrent(dir, ds.gen); err != nil {
			ds.logF.Close()
			return nil, err
		}
		return ds, nil
	case err != nil:
		return nil, err
	}
	ds.gen, err = strconv.ParseUint(strings.TrimSpace(string(cur)), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("%w: unreadable CURRENT: %v", ErrCorrupt, err)
	}
	ds.removeStray()
	if err := ds.loadSnap(); err != nil {
		return nil, err
	}
	if err := ds.openLog(); err != nil {
		return nil, err
	}
	return ds, nil
}

// Dir returns the store's root directory.
func (ds *DiskStore) Dir() string { return ds.dir }

// removeStray deletes segment files of other generations — leftovers of a
// compaction that crashed before (or after) flipping CURRENT.
func (ds *DiskStore) removeStray() {
	ents, err := os.ReadDir(ds.dir)
	if err != nil {
		return
	}
	keep := map[string]bool{
		currentName:             true,
		segName("snap", ds.gen): true,
		segName("log", ds.gen):  true,
	}
	for _, e := range ents {
		if !keep[e.Name()] {
			os.Remove(filepath.Join(ds.dir, e.Name()))
		}
	}
}

// createLog creates the current generation's empty log (header only) and
// syncs it.
func (ds *DiskStore) createLog() error {
	f, err := os.OpenFile(filepath.Join(ds.dir, segName("log", ds.gen)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	ds.logF, ds.logOff = f, int64(len(segMagic))
	return nil
}

// loadSnap loads the generation's snapshot segment if one exists: each
// relation's rows go into a fresh resident relation in the order they were
// written, which is the scan order they were snapshotted in. Snapshot
// segments are fully synced before CURRENT references them, so any defect is
// corruption, never a torn tail.
func (ds *DiskStore) loadSnap() error {
	f, err := os.Open(filepath.Join(ds.dir, segName("snap", ds.gen)))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || string(magic[:]) != segMagic {
		return fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	br := bufio.NewReaderSize(f, 1<<20)
	off := int64(len(segMagic))
	for {
		kind, payload, err := readFrame(br)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%w: snapshot frame at %d: %v", ErrCorrupt, off, err)
		}
		off += frameHeaderLen + int64(len(payload))
		switch kind {
		case recValue:
			if err := ds.addDictEntry(payload); err != nil {
				return err
			}
		case recRel:
			name, arity, rows, err := decodeRelRecord(payload)
			if err != nil {
				return err
			}
			r := intern.NewRelation(arity)
			row := make([]intern.ID, arity)
			for _, vr := range rows {
				if err := ds.rowIDs(vr, row); err != nil {
					return err
				}
				r.Insert(row)
			}
			ds.mem.rels[name] = &memRel{st: &ds.mem, r: r}
		default:
			return fmt.Errorf("%w: snapshot record kind %d", ErrCorrupt, kind)
		}
	}
}

// openLog opens the generation's log, replays its well-formed prefix and
// truncates any torn tail.
func (ds *DiskStore) openLog() error {
	path := filepath.Join(ds.dir, segName("log", ds.gen))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if st.Size() < int64(len(segMagic)) {
		// The header write itself was torn: the durable prefix is empty.
		if err := f.Truncate(0); err == nil {
			_, err = f.WriteAt([]byte(segMagic), 0)
		}
		if err != nil {
			f.Close()
			return err
		}
		ds.logF, ds.logOff = f, int64(len(segMagic))
		return nil
	}
	var magic [8]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil || string(magic[:]) != segMagic {
		f.Close()
		return fmt.Errorf("%w: log header", ErrCorrupt)
	}
	durable, err := ds.replayLog(f)
	if err == nil && durable < st.Size() {
		err = f.Truncate(durable)
	}
	if err != nil {
		f.Close()
		return err
	}
	ds.logF, ds.logOff = f, durable
	return nil
}

// replayLog applies the log's record sequence to the resident state and
// returns the end offset of the longest well-formed prefix. Anything
// undecodable — short frame, failed CRC, out-of-range dictionary reference,
// a batch the state rejects — ends the prefix there.
func (ds *DiskStore) replayLog(f *os.File) (int64, error) {
	if _, err := f.Seek(int64(len(segMagic)), io.SeekStart); err != nil {
		return 0, err
	}
	br := bufio.NewReaderSize(f, 1<<20)
	off := int64(len(segMagic))
	for {
		kind, payload, err := readFrame(br)
		if err != nil {
			return off, nil // io.EOF, torn or garbled: prefix ends here
		}
		switch kind {
		case recValue:
			if ds.addDictEntry(payload) != nil {
				return off, nil
			}
		case recBatch:
			b, err := ds.decodeBatch(payload)
			if err != nil {
				return off, nil
			}
			ds.deadRows += ds.mem.apply(b)
		default:
			return off, nil
		}
		off += frameHeaderLen + int64(len(payload))
	}
}

// addDictEntry decodes a recValue payload, interns the value it defines and
// assigns it the next store-vid.
func (ds *DiskStore) addDictEntry(payload []byte) error {
	dv, err := decodeValueRecord(payload)
	if err != nil {
		return err
	}
	var id intern.ID
	if dv.scalar != nil {
		id = ds.mem.in.Intern(dv.scalar)
	} else {
		kids := make([]intern.ID, len(dv.kids))
		for i, kv := range dv.kids {
			if kv >= uint64(len(ds.vids)) {
				return fmt.Errorf("%w: value record references undefined vid %d", ErrCorrupt, kv)
			}
			kids[i] = ds.vids[kv]
		}
		if dv.kind == value.KindTuple {
			id = ds.mem.in.InternTuple(kids...)
		} else {
			id = ds.mem.in.InternSet(kids...)
		}
	}
	ds.vidOf[id] = uint32(len(ds.vids))
	ds.vids = append(ds.vids, id)
	return nil
}

// decodeBatch decodes a recBatch payload into a Batch of interned-ID rows
// and checks it against the current state — every vid defined, arities
// consistent — before any of it is applied, so replay keeps Apply's
// all-or-nothing contract.
func (ds *DiskStore) decodeBatch(payload []byte) (Batch, error) {
	ms, err := decodeBatchRecord(payload)
	if err != nil {
		return nil, err
	}
	b := make(Batch, len(ms))
	for i, m := range ms {
		mu := Mutation{Rel: m.Rel, Arity: m.Arity, Reset: m.Reset, Drop: m.Drop}
		if mu.Delete, err = ds.rowsIDs(m.Delete, m.Arity); err != nil {
			return nil, err
		}
		if mu.Insert, err = ds.rowsIDs(m.Insert, m.Arity); err != nil {
			return nil, err
		}
		b[i] = mu
	}
	if err := b.validate(); err != nil {
		return nil, err
	}
	return b, ds.mem.checkArities(b)
}

// rowsIDs translates vid rows to interned-ID rows sharing one backing array.
func (ds *DiskStore) rowsIDs(rows [][]uint32, arity int) ([][]intern.ID, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	flat := make([]intern.ID, len(rows)*arity)
	out := make([][]intern.ID, len(rows))
	for i, vr := range rows {
		out[i] = flat[i*arity : (i+1)*arity : (i+1)*arity]
		if err := ds.rowIDs(vr, out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rowIDs translates one vid row to interned IDs, into dst.
func (ds *DiskStore) rowIDs(row []uint32, dst []intern.ID) error {
	for j, vid := range row {
		if uint64(vid) >= uint64(len(ds.vids)) {
			return fmt.Errorf("%w: row references undefined vid %d", ErrCorrupt, vid)
		}
		dst[j] = ds.vids[vid]
	}
	return nil
}
