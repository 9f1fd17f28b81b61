package server

import (
	"context"
	"log/slog"
	"testing"
)

func TestNopDiscardsAndIsDisabled(t *testing.T) {
	log := New(nil, Config{}).log
	if log.Enabled(context.Background(), slog.LevelError) {
		t.Error("a server without a logger claims its logger is enabled")
	}
	log.Error("dropped", "k", "v") // must not panic
	_ = log.With("a", 1).WithGroup("g")
}
