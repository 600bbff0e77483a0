package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

func TestEventLoggerRendersWideEvents(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLogger(&buf)
	l.Event("run",
		slog.String("request_id", "r-1"),
		slog.Int64("nodes", 42),
		slog.Any("solver", map[string]int64{"ac_solves": 7}),
	)

	line := strings.TrimSpace(buf.String())
	var ev map[string]any
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		t.Fatalf("event is not one JSON object: %v\n%s", err, line)
	}
	if ev["event"] != "run" {
		t.Errorf("message key should be renamed to event=run, got %v", ev["event"])
	}
	if _, hasLevel := ev["level"]; hasLevel {
		t.Error("level key should be dropped from wide events")
	}
	if _, hasMsg := ev["msg"]; hasMsg {
		t.Error("msg key should be renamed, not duplicated")
	}
	if ev["request_id"] != "r-1" || ev["nodes"] != float64(42) {
		t.Errorf("attrs not preserved: %v", ev)
	}
	if solver, ok := ev["solver"].(map[string]any); !ok || solver["ac_solves"] != float64(7) {
		t.Errorf("nested attr not preserved: %v", ev["solver"])
	}
	if _, hasTime := ev["time"]; !hasTime {
		t.Error("events should be timestamped")
	}
}

func TestEventLoggerConcurrentLinesDoNotInterleave(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLogger(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Event("e", slog.String("who", fmt.Sprintf("g%d-%d", g, i)))
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8*50 {
		t.Fatalf("got %d lines, want %d", len(lines), 8*50)
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("interleaved/corrupt line: %q", line)
		}
	}
}

func TestEventLoggerNilReceiver(t *testing.T) {
	var l *EventLogger
	l.Event("e")                   // must not panic
	NewEventLogger(nil).Event("e") // nil sink discards
}
