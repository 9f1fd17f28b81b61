package tierdb

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"regexp"
	"strings"
	"testing"
)

func TestTextLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	log := newLogger("warn", "", &buf)
	log.Info("hidden")
	log.Warn("shown", "k", "v")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("info leaked through warn level:\n%s", out)
	}
	if !strings.Contains(out, "shown") || !strings.Contains(out, "k=v") {
		t.Errorf("warn record missing:\n%s", out)
	}
}

func TestJSONLogger(t *testing.T) {
	var buf bytes.Buffer
	log := newLogger("debug", "json", &buf)
	log.Debug("event", slog.String("table", "t"), slog.Int64("rows", 7))
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, buf.String())
	}
	if rec["msg"] != "event" || rec["table"] != "t" || rec["rows"] != float64(7) {
		t.Errorf("record = %v", rec)
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "DEBUG": slog.LevelDebug,
		"info": slog.LevelInfo, "": slog.LevelInfo, "bogus": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn,
		"error": slog.LevelError,
	}
	for in, want := range cases {
		if got := parseLevel(in); got != want {
			t.Errorf("parseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestDefaultsFallBack(t *testing.T) {
	var buf bytes.Buffer
	// Unknown format falls back to text rather than failing.
	log := newLogger("", "xml", &buf)
	log.Info("msg")
	if !strings.Contains(buf.String(), "msg=") && !strings.Contains(buf.String(), `msg`) {
		t.Errorf("fallback text output: %s", buf.String())
	}
}

// TestLoggerRecordBytes pins one record in each format byte for byte,
// apart from the timestamp.
func TestLoggerRecordBytes(t *testing.T) {
	stamp := regexp.MustCompile(`^time=\S+ |"time":"[^"]*",`)
	for _, tc := range []struct{ format, want string }{
		{"text", "level=WARN msg=\"slow query\" table=t rows=7\n"},
		{"JSON", `{"level":"WARN","msg":"slow query","table":"t","rows":7}` + "\n"},
	} {
		var buf bytes.Buffer
		newLogger("info", tc.format, &buf).Warn("slow query", "table", "t", "rows", 7)
		if got := stamp.ReplaceAllString(buf.String(), ""); got != tc.want {
			t.Errorf("%s record = %q, want %q", tc.format, got, tc.want)
		}
	}
}
