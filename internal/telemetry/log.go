package telemetry

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Structured logging support for the online pipeline. The pipeline
// packages (core, relational, fselect, ml) carry an optional
// *slog.Logger; a nil logger means logging is off — the default — and
// call sites either nil-check or normalise through OrNop. The CLIs build
// their logger with NewLogger from the -log-level / -log-format flags.

// nopHandler is a slog.Handler that drops every record. It exists so a
// normalised logger can be called unconditionally: Enabled returns false,
// so disabled loggers pay one interface call and no formatting.
type nopHandler struct{}

// Enabled implements slog.Handler; the nop handler accepts no level.
func (nopHandler) Enabled(context.Context, slog.Level) bool { return false }

// Handle implements slog.Handler by discarding the record.
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }

// WithAttrs implements slog.Handler.
func (h nopHandler) WithAttrs([]slog.Attr) slog.Handler { return h }

// WithGroup implements slog.Handler.
func (h nopHandler) WithGroup(string) slog.Handler { return h }

// nopLogger is shared: the nop handler is stateless.
var nopLogger = slog.New(nopHandler{})

// OrNop returns l unchanged when non-nil, the nop logger otherwise, so
// pipeline code can log unconditionally without nil checks.
func OrNop(l *slog.Logger) *slog.Logger {
	if l == nil {
		return nopLogger
	}
	return l
}

// ParseLogLevel maps a -log-level flag value to its slog.Level. The
// accepted names are "debug", "info", "warn" and "error"; "off" (and "")
// report ok=false, meaning logging stays disabled.
func ParseLogLevel(s string) (level slog.Level, ok bool, err error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "off", "none":
		return 0, false, nil
	case "debug":
		return slog.LevelDebug, true, nil
	case "info":
		return slog.LevelInfo, true, nil
	case "warn", "warning":
		return slog.LevelWarn, true, nil
	case "error":
		return slog.LevelError, true, nil
	default:
		return 0, false, fmt.Errorf("telemetry: unknown log level %q (use off|debug|info|warn|error)", s)
	}
}

// NewLogger builds a structured logger writing to w at the given level.
// format selects the slog handler: "json" for machine-readable lines,
// anything else (canonically "text") for logfmt-style key=value output.
func NewLogger(w io.Writer, level slog.Level, format string) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if strings.EqualFold(strings.TrimSpace(format), "json") {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}
