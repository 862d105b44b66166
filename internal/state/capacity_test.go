package state

import (
	"testing"
	"time"

	"repro/internal/qos"
)

func TestSetNodeCapacity(t *testing.T) {
	l, _, _ := newTestLedger(t)

	want := qos.Resources{CPU: 250, Memory: 125}
	if err := l.SetNodeCapacity(3, want); err != nil {
		t.Fatal(err)
	}
	if got := l.NodeCapacity(3); got != want {
		t.Errorf("capacity = %+v, want %+v", got, want)
	}
	if got := nodeAvailable(l, 3); got != want {
		t.Errorf("available = %+v, want %+v", got, want)
	}
	// Other nodes keep the uniform capacity.
	if got := l.NodeCapacity(4); got != (qos.Resources{CPU: 100, Memory: 1000}) {
		t.Errorf("untouched node capacity = %+v", got)
	}

	if err := l.SetNodeCapacity(-1, want); err == nil {
		t.Error("accepted a negative node index")
	}
	if err := l.SetNodeCapacity(l.NumNodes(), want); err == nil {
		t.Error("accepted an out-of-range node index")
	}
	if err := l.SetNodeCapacity(3, qos.Resources{CPU: 0, Memory: 10}); err == nil {
		t.Error("accepted a non-positive capacity")
	}
}

func TestSetNodeCapacityRejectedOnLiveNode(t *testing.T) {
	l, _, _ := newTestLedger(t)
	if !l.HoldNode(1, 0, 5, qos.Resources{CPU: 10, Memory: 10}, 10*time.Second) {
		t.Fatal("hold rejected")
	}
	if err := l.SetNodeCapacity(5, qos.Resources{CPU: 5, Memory: 5}); err == nil {
		t.Error("accepted a capacity override under a live hold")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
