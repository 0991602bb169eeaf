package sitam

import (
	"fmt"
	"runtime"
	"strings"

	"sitam/internal/core"
	"sitam/internal/serve"
)

// ErrInternal marks a library fault. It wraps every error the facade
// synthesizes from a recovered internal panic: library invariants are
// enforced with panics inside the internal packages, and the facade
// converts any that escape into an ordinary error carrying the panic
// message and a stack snippet, so a library bug cannot crash the
// embedding process. It also wraps a result whose SI schedule fails
// the independent checker (every optimization checks its own). Test
// for it with errors.Is(err, sitam.ErrInternal).
var ErrInternal = core.ErrInternal

// ErrOverloaded is the admission-control sentinel of the serving
// layer (sitamd): a job submission was shed because the bounded queue
// was full or the daemon was draining. Over HTTP it surfaces as
// 503 + Retry-After; embedders driving a serve.Scheduler directly test
// for it with errors.Is(err, sitam.ErrOverloaded) and retry later
// instead of treating the shed as a hard failure.
var ErrOverloaded = serve.ErrOverloaded

// guard recovers a panic into *errp, wrapping ErrInternal. Use as
//
//	func F() (err error) {
//	    defer guard(&err)
//	    ...
//	}
//
// on every exported facade function. A nil recover leaves err alone, so
// the normal return path is untouched.
func guard(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	*errp = fmt.Errorf("%w: %v\n%s", ErrInternal, r, stackSnippet())
}

// stackSnippet returns the top frames of the panicking goroutine's
// stack, trimmed to the few entries that locate the fault without
// dumping the whole trace into the error string.
func stackSnippet() string {
	buf := make([]byte, 8192)
	n := runtime.Stack(buf, false)
	lines := strings.Split(strings.TrimSpace(string(buf[:n])), "\n")
	// Drop the frames of the recovery machinery itself (runtime.Stack,
	// stackSnippet, guard, the deferred call and the panic dispatch):
	// the first line is the goroutine header, then two lines per frame.
	const skipFrames = 4
	kept := lines[:1]
	if len(lines) > 1+2*skipFrames {
		kept = append(kept, lines[1+2*skipFrames:]...)
	}
	const maxLines = 13 // header + 6 frames
	if len(kept) > maxLines {
		kept = kept[:maxLines]
	}
	return strings.Join(kept, "\n")
}
