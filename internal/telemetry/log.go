package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level grades log lines, mirroring core.AlertLevel so daemon alert sinks
// can map one onto the other.
type Level int

const (
	// LevelInfo is routine operational output (status lines, startup).
	LevelInfo Level = iota
	// LevelWarning indicates degraded operation.
	LevelWarning
	// LevelError requires operator attention.
	LevelError
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelInfo:
		return "info"
	case LevelWarning:
		return "warning"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Logger writes structured logfmt lines:
//
//	ts=2016-06-18T14:03:05.123Z level=warning component=dynamo-suited msg="cap command failed" device=rpp1
//
// replacing the daemons' ad-hoc fmt.Printf output. Every line carries a
// wall-clock timestamp and a severity, which the bare "ALERT %v" lines
// lacked — the missing pieces for incident reconstruction. A nil *Logger
// discards everything.
type Logger struct {
	mu        sync.Mutex
	w         io.Writer
	component string
	now       func() time.Time // test hook
}

// NewLogger creates a logger writing to w, tagging every line with the
// component name.
func NewLogger(w io.Writer, component string) *Logger {
	return &Logger{w: w, component: component, now: time.Now}
}

// Log writes one line at the given level. kv are alternating key/value
// pairs appended after the message; values are formatted with %v and
// quoted when they contain spaces.
func (l *Logger) Log(level Level, msg string, kv ...interface{}) {
	if l == nil {
		return
	}
	var b strings.Builder
	b.WriteString("ts=")
	b.WriteString(l.now().UTC().Format("2006-01-02T15:04:05.000Z07:00"))
	b.WriteString(" level=")
	b.WriteString(level.String())
	b.WriteString(" component=")
	b.WriteString(l.component)
	b.WriteString(" msg=")
	b.WriteString(quote(msg))
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		fmt.Fprintf(&b, "%v", kv[i])
		b.WriteByte('=')
		b.WriteString(quote(fmt.Sprintf("%v", kv[i+1])))
	}
	b.WriteByte('\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	io.WriteString(l.w, b.String())
}

// quote wraps s in double quotes when it contains logfmt-hostile
// characters.
func quote(s string) string {
	if s == "" || strings.ContainsAny(s, " \t\"=\n") {
		return fmt.Sprintf("%q", s)
	}
	return s
}
