package algebra

import (
	"errors"
	"testing"
	"time"

	"algrec/internal/value"
)

// divergentIFP is an IFP whose fixpoint is infinite: ifp(s, union({0}, map(s, x+1))).
func divergentIFP() Expr {
	return IFP{Var: "s", Body: Union{
		L: Lit{Set: value.NewSet(value.Int(0))},
		R: Map{Of: Rel{Name: "s"}, Var: "x", Out: FArith{Op: OpPlus, L: FVar{Name: "x"}, R: FConst{V: value.Int(1)}}},
	}}
}

func TestInterruptStopsDivergentIFP(t *testing.T) {
	ch := make(chan struct{})
	close(ch)
	ev := NewEvaluator(DB{}, Budget{Interrupt: ch})
	_, err := ev.Eval(divergentIFP())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestInterruptFiresMidFixpoint(t *testing.T) {
	ch := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		ev := NewEvaluator(DB{}, Budget{MaxIFPIters: 1 << 30, MaxSetSize: 1 << 30, Interrupt: ch})
		_, err := ev.Eval(divergentIFP())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(ch)
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("want ErrCanceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("evaluation did not stop within 10s of the interrupt")
	}
}

// TestTimeoutInsideOneScan: a selection scan and a join pipeline are one
// operator evaluation each, with no round boundary inside; the interrupt ends
// them after a few thousand elements, not after the scan.
func TestTimeoutInsideOneScan(t *testing.T) {
	ints := func(n int) value.Set {
		elems := make([]value.Value, n)
		for i := range elems {
			elems[i] = value.Int(int64(i))
		}
		return value.SetFromSorted(elems)
	}
	x := FVar{Name: "x"}
	// x·x·x·x mod 7 = 3 holds for no integer: every element is tested, none kept.
	pow := FArith{Op: OpTimes, L: FArith{Op: OpTimes, L: x, R: x}, R: FArith{Op: OpTimes, L: x, R: x}}
	expensive := Select{Of: Rel{Name: "a"}, Var: "x", Test: FCmp{Op: OpEq, L: FArith{Op: OpMod, L: pow, R: FConst{V: value.Int(7)}}, R: FConst{V: value.Int(3)}}}
	p := FVar{Name: "p"}
	rangeJoin := Select{Of: Product{L: Rel{Name: "b"}, R: Rel{Name: "b"}}, Var: "p",
		Test: FCmp{Op: OpLt, L: FField{Of: p, Idx: 1}, R: FField{Of: p, Idx: 2}}}
	db := DB{"a": ints(1_000_000), "b": ints(3000)}
	for name, e := range map[string]Expr{"a select over 10^6 elements": expensive, "a range join of 3000 x 3000": rangeJoin} {
		stop := make(chan struct{})
		time.AfterFunc(10*time.Millisecond, func() { close(stop) })
		start := time.Now()
		_, err := NewEvaluator(db, Budget{MaxSetSize: 1 << 30, Interrupt: stop}).Eval(e)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: want ErrCanceled after %s, got %v", name, time.Since(start), err)
		}
	}
}

func TestNoInterruptIsFree(t *testing.T) {
	// A nil Interrupt must not change results: the win-game fixpoint of the
	// paper's Example 3 still converges.
	if err := (Budget{}).Stop(); err != nil {
		t.Fatalf("nil Interrupt reported %v", err)
	}
}
