package clsacim

import (
	"encoding/json"
	"testing"

	"clsacim/internal/schedule"
)

// FuzzScheduleMode: the public ParseMode accepts exactly the names the
// internal schedule.ParseMode accepts, both agree on the admission
// window and the canonical name, and every accepted mode round-trips
// through JSON.
func FuzzScheduleMode(f *testing.F) {
	for _, tc := range modeCases {
		f.Add(tc.in)
	}
	for _, s := range badModes {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMode(s)
		p, perr := schedule.ParseMode(s)
		if (err == nil) != (perr == nil) {
			t.Fatalf("ParseMode(%q): clsacim error %v, schedule error %v", s, err, perr)
		}
		if err != nil {
			return
		}
		if m.Window() != p.Window() || m.Name() != p.Name() {
			t.Fatalf("ParseMode(%q): clsacim (%s, window %d), schedule (%s, window %d)",
				s, m.Name(), m.Window(), p.Name(), p.Window())
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var back ScheduleMode
		if err := json.Unmarshal(b, &back); err != nil || back != m {
			t.Fatalf("ParseMode(%q) = %v: JSON %s decodes to %v, %v", s, m, b, back, err)
		}
	})
}
