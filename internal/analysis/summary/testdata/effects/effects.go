// Package effects exercises the summary computation: each function's
// want comment states the effect set the probe analyzer must report.
package effects

import "cfpgrowth/internal/mine"

func emit(s mine.Sink) error { // want `effects: emitsSink$`
	return s.Emit(nil, 1)
}

func emitVia(s mine.Sink) error { // want `effects: emitsSink$`
	return emit(s)
}

// A call through a plain function value is unknown and assumed
// effect-free.
func dyn(f func()) { // want `effects: none$`
	f()
}

// Mutual recursion converges to the union of both bodies' effects.
func pingPong(s mine.Sink, depth int) error { // want `effects: emitsSink$`
	if depth == 0 {
		return nil
	}
	return pong(s, depth-1)
}

func pong(s mine.Sink, depth int) error { // want `effects: emitsSink$`
	if err := s.Emit(nil, 1); err != nil {
		return err
	}
	return pingPong(s, depth)
}
