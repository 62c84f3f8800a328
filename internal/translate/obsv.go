package translate

import "algrec/internal/obsv"

// emitTranslate reports one completed translation to the process-default
// collector. op is the obsv.TranslateStats operation name, in/out the sizes
// of the source and result objects (rule counts for deductive programs,
// definition counts for algebra= programs), steps the step-index bound where
// one applies. A nil default collector makes this a single branch.
func emitTranslate(op string, in, out, steps int) {
	if c := obsv.Default(); c != nil {
		c.Collect(obsv.TranslateStats{Op: op, InSize: in, OutSize: out, Steps: steps})
	}
}
