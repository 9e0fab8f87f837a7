// Package logging centralizes CN's structured logging on log/slog. Every
// component logs through a *slog.Logger carrying component/node attrs
// (plus job/task/peer/err attrs per record), leveled and
// flag-configurable from the cmds. Level policy: Warn marks lost work or
// data (dropped connections, persist failures, failed heartbeats,
// undeliverable replies), Info marks job milestones, Debug marks routine
// lifecycle chatter.
package logging

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
)

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("logging: unknown level %q (want debug, info, warn, or error)", s)
}

// New creates a text-handler logger writing to w at the given level.
func New(w io.Writer, level slog.Leveler) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// Default creates the cmds' standard logger: text on stderr at level.
func Default(level slog.Leveler) *slog.Logger { return New(os.Stderr, level) }

// Discard returns a logger that drops every record.
func Discard() *slog.Logger {
	return slog.New(discardHandler{})
}

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// Component returns log with the standard component/node attrs attached;
// a nil log yields a discard logger.
func Component(log *slog.Logger, component, node string) *slog.Logger {
	if log == nil {
		return Discard()
	}
	return log.With(slog.String("component", component), slog.String("node", node))
}
