package obs

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"sync"
	"time"
)

// EventLogger emits wide events: one self-contained structured JSON
// object per notable occurrence (a /batch request, a drain, a final
// metrics snapshot) instead of many small free-form log lines. The
// canonical-event discipline is what makes log analysis a filter rather
// than a join — every field a question might need is on the one event,
// so "show me slow shed-heavy runs" needs no correlation step.
//
// Events are rendered by the stdlib log/slog JSON handler (zero
// dependencies) and written as one line to the sink.
//
// A nil *EventLogger is valid everywhere: Event is a no-op, so event
// emission can be threaded unconditionally.
type EventLogger struct {
	mu  sync.Mutex
	buf bytes.Buffer
	h   slog.Handler
	out io.Writer
}

// NewEventLogger returns a logger writing JSON events to out (nil
// discards). The JSON schema is the slog JSON handler's with the message
// key renamed to "event" and the level key dropped:
// {"time":...,"event":"run","request_id":...,...}.
func NewEventLogger(out io.Writer) *EventLogger {
	l := &EventLogger{out: out}
	l.h = slog.NewJSONHandler(&l.buf, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 {
				switch a.Key {
				case slog.MessageKey:
					a.Key = "event"
				case slog.LevelKey:
					return slog.Attr{}
				}
			}
			return a
		},
	})
	return l
}

// Event emits one wide event named event with the given attributes. The
// rendered line goes to the sink in one write; concurrent callers never
// interleave bytes.
func (l *EventLogger) Event(event string, attrs ...slog.Attr) {
	if l == nil || l.out == nil {
		return
	}
	rec := slog.NewRecord(time.Now(), slog.LevelInfo, event, 0)
	rec.AddAttrs(attrs...)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Reset()
	if err := l.h.Handle(context.Background(), rec); err != nil {
		return
	}
	l.out.Write(l.buf.Bytes())
}
