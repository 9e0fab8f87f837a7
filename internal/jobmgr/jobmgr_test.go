package jobmgr

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"

	"cn/internal/logging"
	"cn/internal/msg"
)

func noSend(string, *msg.Message) error { return nil }

// TestConfigAssignTimeoutDefault pins the batch-assignment dispatch
// window: zero selects DefaultAssignTimeout (the previously hardcoded
// 5s), and an explicit value — slow CI lifting it clear of the client's
// 10s call timeout — is honored verbatim.
func TestConfigAssignTimeoutDefault(t *testing.T) {
	jm := New(Config{Node: "n1", HeartbeatInterval: -1}, noSend, nil, nil)
	defer jm.Close()
	if got := jm.cfg.AssignTimeout; got != DefaultAssignTimeout {
		t.Errorf("default AssignTimeout = %v, want %v", got, DefaultAssignTimeout)
	}
	if DefaultAssignTimeout != 5*time.Second {
		t.Errorf("DefaultAssignTimeout = %v, want the pre-config 5s", DefaultAssignTimeout)
	}

	jm2 := New(Config{Node: "n2", HeartbeatInterval: -1, AssignTimeout: 9 * time.Second}, noSend, nil, nil)
	defer jm2.Close()
	if got := jm2.cfg.AssignTimeout; got != 9*time.Second {
		t.Errorf("explicit AssignTimeout = %v, want 9s", got)
	}
}

// TestMalformedSolicitLoggedAtWarn: with only the structured logger
// configured at the default info level, a dropped malformed request must
// surface as a Warn record with the jobmgr component and the sender.
func TestMalformedSolicitLoggedAtWarn(t *testing.T) {
	var buf bytes.Buffer
	jm := New(Config{Node: "n1", HeartbeatInterval: -1, Log: logging.New(&buf, slog.LevelInfo)}, noSend, nil, nil)
	defer jm.Close()
	m := msg.New(msg.KindJobManagerSolicit, msg.Address{Node: "c1"}, msg.Address{Node: "n1"}, []byte{0xff, 0x00})
	if r := jm.HandleSolicit(m); r != nil {
		t.Fatalf("malformed solicit answered with %v", r.Kind)
	}
	out := buf.String()
	for _, want := range []string{"level=WARN", "bad jm solicit", "component=jobmgr", "node=n1", "peer=c1"} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}
