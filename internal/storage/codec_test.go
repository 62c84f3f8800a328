package storage

import (
	"bufio"
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"algrec/internal/randgen"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// TestValueCodecRoundTrip drives randomly generated nested values through
// the dictionary codec and a store reopen: since both opens share the
// process-global interner, a perfect round-trip means identical intern IDs.
func TestValueCodecRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randgen.New(seed, randgen.Config{})
		in := intern.Global()
		var rows [][]intern.ID
		for i := 0; i < 40; i++ {
			rows = append(rows, []intern.ID{in.Intern(g.Value(3))})
		}
		dir := t.TempDir()
		st, err := OpenDisk(dir, DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Apply(Batch{{Rel: "v", Arity: 1, Insert: rows}}); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2, err := OpenDisk(dir, DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var got [][]intern.ID
		r, _, _ := st2.Rel("v")
		if err := r.Scan(func(row []intern.ID) bool {
			got = append(got, []intern.ID{row[0]})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		st2.Close()
		// The insert deduplicates rows; compare against the deduped sequence.
		want := rows[:0:0]
		seen := map[intern.ID]bool{}
		for _, row := range rows {
			if !seen[row[0]] {
				seen[row[0]] = true
				want = append(want, row)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: value round-trip changed IDs\ngot:  %v\nwant: %v", seed, got, want)
		}
	}
}

// TestValueRecordScalars pins the scalar encodings byte-for-byte at the
// codec level, including negative ints and the empty string.
func TestValueRecordScalars(t *testing.T) {
	for _, v := range []value.Value{
		value.True, value.False,
		value.Int(0), value.Int(-1), value.Int(1 << 40), value.Int(-(1 << 40)),
		value.String(""), value.String("héllo\x00world"),
	} {
		payload, err := appendValueRecord(nil, v, nil, 0)
		if err != nil {
			t.Fatalf("encode %v: %v", v, err)
		}
		dv, err := decodeValueRecord(payload)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if dv.scalar == nil || !value.Equal(dv.scalar, v) {
			t.Fatalf("round-trip %v -> %v", v, dv.scalar)
		}
	}
}

// TestBatchRecordRoundTrip checks the batch codec over random mutation
// shapes — arity 0 through a 64-column worst case, empty insert/delete
// lists, reset flags.
func TestBatchRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(4)
		ms := make([]encodedMutation, n)
		for i := range ms {
			arity := []int{0, 1, 2, 3, 64}[rng.Intn(5)]
			m := encodedMutation{
				Rel:   []string{"a", "bb", "relation-with-a-long-name", ""}[rng.Intn(3)],
				Arity: arity,
				Reset: rng.Intn(2) == 0,
			}
			mkRows := func(k int) [][]uint32 {
				if k == 0 {
					return nil
				}
				rows := make([][]uint32, k)
				for j := range rows {
					row := make([]uint32, arity)
					for c := range row {
						row[c] = rng.Uint32()
					}
					rows[j] = row
				}
				return rows
			}
			m.Delete = mkRows(rng.Intn(3))
			m.Insert = mkRows(rng.Intn(4))
			ms[i] = m
		}
		got, err := decodeBatchRecord(appendBatchRecord(nil, ms))
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if len(got) != len(ms) {
			t.Fatalf("iter %d: %d mutations, want %d", iter, len(got), len(ms))
		}
		for i := range ms {
			if got[i].Rel != ms[i].Rel || got[i].Arity != ms[i].Arity || got[i].Reset != ms[i].Reset {
				t.Fatalf("iter %d mutation %d: %+v vs %+v", iter, i, got[i], ms[i])
			}
			if !rowsEq(got[i].Delete, ms[i].Delete) || !rowsEq(got[i].Insert, ms[i].Insert) {
				t.Fatalf("iter %d mutation %d: rows differ", iter, i)
			}
		}
	}
}

func rowsEq(a, b [][]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestFrameDetectsDamage checks that a frame sequence reads back exactly and
// that any single-byte damage in a frame surfaces as a read error rather
// than wrong payload bytes (the kind byte, outside the CRC, may legally
// decode as a different kind — but never with altered payload).
func TestFrameDetectsDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var buf []byte
	var payloads [][]byte
	for i := 0; i < 5; i++ {
		p := make([]byte, rng.Intn(40))
		rng.Read(p)
		payloads = append(payloads, p)
		buf = appendFrame(buf, recBatch, p)
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	for i, want := range payloads {
		kind, got, err := readFrame(br)
		if err != nil || kind != recBatch || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: kind=%d err=%v", i, kind, err)
		}
	}
	if _, _, err := readFrame(br); err == nil {
		t.Fatal("read past final frame")
	}

	for off := 1; off < len(buf); off++ { // byte 0 is a kind byte: see above
		damaged := append([]byte(nil), buf...)
		damaged[off] ^= 0x10
		br := bufio.NewReader(bytes.NewReader(damaged))
		for i := 0; ; i++ {
			kind, got, err := readFrame(br)
			if err != nil {
				break
			}
			if kind == recBatch && !bytes.Equal(got, payloads[i]) {
				t.Fatalf("flip at %d: frame %d decoded with wrong payload", off, i)
			}
		}
	}
}
