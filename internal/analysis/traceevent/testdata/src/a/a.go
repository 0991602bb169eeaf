// Package a exercises the traceevent analyzer: obs.Event literals must
// use the obs package's event-type constants and phase spans must
// balance within a function declaration.
package a

import "sitam/internal/obs"

// rogue has the right type but is not part of the obs package's closed
// event vocabulary.
const rogue obs.Type = "rogue_event"

var template = obs.Event{Type: obs.CacheLoad}

var badTemplate = obs.Event{Phase: "x"} // want `obs\.Event literal without a Type field`

func emitFlagged(sink obs.Sink) {
	sink.Emit(obs.Event{Type: obs.MergeAccepted, Phase: "merge", N: 3})
	sink.Emit(obs.Event{})                    // want `obs\.Event literal without a Type field`
	sink.Emit(obs.Event{Phase: "x"})          // want `obs\.Event literal without a Type field`
	sink.Emit(obs.Event{Type: "phase_start"}) // want `Type must be one of the obs event-type constants`
	sink.Emit(obs.Event{Type: obs.Type("x")}) // want `Type must be one of the obs event-type constants`
	sink.Emit(obs.Event{Type: rogue})         // want `Type must be one of the obs event-type constants`
}

func leakySpan(sink obs.Sink) { // want `opens 1 obs\.Span span\(s\) but never calls End`
	obs.Span(sink, "search") // want `obs\.Span handle discarded`
}

func startOnly(sink obs.Sink) {
	sink.Emit(obs.Event{Type: obs.PhaseStart, Phase: "x"}) // want `emits PhaseStart but no matching PhaseEnd`
}

func endOnly(sink obs.Sink) {
	sink.Emit(obs.Event{Type: obs.PhaseEnd, Phase: "x"}) // want `emits PhaseEnd but no matching PhaseStart`
}

func balancedSpan(sink obs.Sink) {
	span := obs.Span(sink, "search")
	defer span.End(0, 0)
}

// balancedEmit is the engine's phase pattern: the PhaseEnd is emitted
// by a closure returned from the same function declaration.
func balancedEmit(sink obs.Sink) func() {
	sink.Emit(obs.Event{Type: obs.PhaseStart, Phase: "x"})
	return func() {
		sink.Emit(obs.Event{Type: obs.PhaseEnd, Phase: "x"})
	}
}
