package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/alarm"
	"repro/internal/hw"
	"repro/internal/simclock"
)

func buildLog(t *testing.T) *Logger {
	t.Helper()
	c := simclock.New()
	l := NewLoggerSized(c, 0)
	wl := new(hw.WakelockManager)
	wl.Subscribe(l)
	wl.Acquire(hw.MakeSet(hw.WiFi))
	c.Run(simclock.Time(2 * simclock.Second))
	l.Record(alarm.Record{AlarmID: "a", App: "app", HW: hw.MakeSet(hw.WiFi),
		Delivered: c.Now(), Session: 1, Period: 100 * simclock.Second})
	c.Run(simclock.Time(4 * simclock.Second))
	wl.Release(hw.MakeSet(hw.WiFi))
	return l
}

func TestLoggerEvents(t *testing.T) {
	l := buildLog(t)
	ev := l.Events()
	if len(ev) != 3 {
		t.Fatalf("events = %d, want 3", len(ev))
	}
	if ev[0].Kind != EventComponentOn || ev[0].Component != hw.WiFi || ev[0].At != 0 {
		t.Fatalf("event 0 = %+v", ev[0])
	}
	if ev[1].Kind != EventDelivery || ev[1].Delivery.AlarmID != "a" {
		t.Fatalf("event 1 = %+v", ev[1])
	}
	if ev[2].Kind != EventComponentOff || ev[2].At != simclock.Time(4*simclock.Second) {
		t.Fatalf("event 2 = %+v", ev[2])
	}
	ds := l.Deliveries()
	if len(ds) != 1 || ds[0].App != "app" {
		t.Fatalf("deliveries = %v", ds)
	}
}

func TestCSVExport(t *testing.T) {
	l := buildLog(t)
	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d: %q", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[1], "0,on,Wi-Fi") {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if !strings.Contains(lines[2], "delivery") || !strings.Contains(lines[2], "app") {
		t.Fatalf("row 2 = %q", lines[2])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l := buildLog(t)
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("round-tripped %d events", len(events))
	}
	if events[1].Delivery == nil || events[1].Delivery.AlarmID != "a" {
		t.Fatalf("delivery lost: %+v", events[1])
	}
	if events[0].Component != hw.WiFi {
		t.Fatalf("component lost: %+v", events[0])
	}
}

func TestReadJSONError(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestEventKindString(t *testing.T) {
	if EventDelivery.String() != "delivery" || EventComponentOn.String() != "on" ||
		EventComponentOff.String() != "off" {
		t.Fatal("kind strings wrong")
	}
	if !strings.Contains(EventKind(9).String(), "9") {
		t.Fatal("unknown kind string")
	}
}

func TestNewLoggerNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil clock did not panic")
		}
	}()
	NewLoggerSized(nil, 0)
}

func TestTimelineBasic(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	_ = wifi
	events := []Event{
		{At: simclock.Time(0), Kind: EventComponentOn, Component: hw.WiFi},
		{At: simclock.Time(25 * simclock.Second), Kind: EventComponentOff, Component: hw.WiFi},
		{At: simclock.Time(10 * simclock.Second), Kind: EventDelivery,
			Delivery: &alarm.Record{AlarmID: "a", Delivered: simclock.Time(10 * simclock.Second)}},
		{At: simclock.Time(90 * simclock.Second), Kind: EventComponentOn, Component: hw.WPS},
		// WPS never turns off: painted to the right edge.
	}
	out := Timeline(events, 0, simclock.Time(100*simclock.Second), 20)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, deliveries, Wi-Fi, WPS
		t.Fatalf("timeline:\n%s", out)
	}
	var deliveries, wifiRow, wpsRow string
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "deliveries"):
			deliveries = l
		case strings.HasPrefix(l, "Wi-Fi"):
			wifiRow = l
		case strings.HasPrefix(l, "WPS"):
			wpsRow = l
		}
	}
	// Wi-Fi powered for the first quarter: '#' at the left, '.' at the right.
	if !strings.Contains(wifiRow, "#") || !strings.HasSuffix(wifiRow, ".") {
		t.Fatalf("wifi row = %q", wifiRow)
	}
	if strings.Count(wifiRow, "#") != 6 { // cells 0..5 of 20 over 100 s
		t.Fatalf("wifi row = %q, want 6 powered cells", wifiRow)
	}
	// WPS open at the horizon: painted to the right edge.
	if !strings.HasSuffix(wpsRow, "##") {
		t.Fatalf("wps row = %q", wpsRow)
	}
	if strings.Count(deliveries, "|") != 1 {
		t.Fatalf("deliveries = %q", deliveries)
	}
}

func TestTimelineCollapsedDeliveries(t *testing.T) {
	var events []Event
	for i := 0; i < 3; i++ {
		events = append(events, Event{At: simclock.Time(i), Kind: EventDelivery,
			Delivery: &alarm.Record{AlarmID: "x"}})
	}
	out := Timeline(events, 0, simclock.Time(simclock.Minute), 10)
	if !strings.Contains(out, "+") {
		t.Fatalf("coincident deliveries not collapsed:\n%s", out)
	}
}

func TestTimelineEdgeCases(t *testing.T) {
	if Timeline(nil, 10, 10, 20) != "" {
		t.Fatal("degenerate window should render empty")
	}
	// Events outside the window are ignored.
	events := []Event{
		{At: simclock.Time(500 * simclock.Second), Kind: EventDelivery, Delivery: &alarm.Record{}},
	}
	out := Timeline(events, 0, simclock.Time(100*simclock.Second), 10)
	if strings.Contains(out, "|") {
		t.Fatalf("out-of-window delivery rendered:\n%s", out)
	}
	// Zero width falls back to the default.
	if !strings.Contains(Timeline(nil, 0, simclock.Time(simclock.Second), 0), "deliveries") {
		t.Fatal("default width broken")
	}
}

// TestEventsSnapshot: Events must return a copy. A caller sorting or
// truncating the returned slice must not disturb the logger's own
// chronology (the exports iterate the internal slice).
func TestEventsSnapshot(t *testing.T) {
	l := buildLog(t)
	ev := l.Events()
	if len(ev) == 0 {
		t.Fatal("empty log")
	}
	first := ev[0]
	for i := range ev {
		ev[i] = Event{At: 12345, Kind: EventFault, Tag: "clobbered"}
	}
	again := l.Events()
	if again[0] != first {
		t.Fatalf("mutating Events() result corrupted the log: got %+v, want %+v", again[0], first)
	}
	// And the copies are independent of each other, too.
	if ev[0] == again[0] {
		t.Fatal("second snapshot aliased the first")
	}
}

// TestLoggerSized: a preallocated logger behaves identically and never
// reallocates within its declared capacity.
func TestLoggerSized(t *testing.T) {
	c := simclock.New()
	l := NewLoggerSized(c, 64)
	for i := 0; i < 64; i++ {
		l.Fault("app", "probe")
	}
	if got := len(l.Events()); got != 64 {
		t.Fatalf("logged %d events, want 64", got)
	}
	// capacity <= 0 preallocates nothing but still builds a logger.
	if NewLoggerSized(c, 0) == nil || NewLoggerSized(c, -5) == nil {
		t.Fatal("non-positive capacity rejected")
	}
}

// TestTimelineOffWithoutOn: a windowed slice of a longer trace can open
// with a component already powered — the first event for it is an off.
// That interval must paint from the window start, not vanish.
func TestTimelineOffWithoutOn(t *testing.T) {
	events := []Event{
		{At: simclock.Time(50 * simclock.Second), Kind: EventComponentOff, Component: hw.WiFi},
	}
	out := Timeline(events, 0, simclock.Time(100*simclock.Second), 20)
	var wifiRow string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "Wi-Fi") {
			wifiRow = l
		}
	}
	if wifiRow == "" {
		t.Fatalf("off-without-on dropped the component row:\n%s", out)
	}
	// Painted exactly over the first half: cells 0..10 of 20.
	if got := strings.Count(wifiRow, "#"); got != 11 {
		t.Fatalf("wifi row = %q, want 11 powered cells", wifiRow)
	}
	if !strings.HasSuffix(wifiRow, ".") {
		t.Fatalf("wifi row painted past the off instant: %q", wifiRow)
	}
}

// TestTimelineOffWithoutOnWidthOne: the degenerate single-cell chart
// must not index out of range when the synthetic on-since-from interval
// collapses into one cell.
func TestTimelineOffWithoutOnWidthOne(t *testing.T) {
	events := []Event{
		{At: simclock.Time(5 * simclock.Second), Kind: EventComponentOff, Component: hw.GPS},
	}
	out := Timeline(events, 0, simclock.Time(10*simclock.Second), 1)
	var row string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "GPS") {
			row = l
		}
	}
	if !strings.Contains(row, "#") {
		t.Fatalf("width-1 off-without-on not painted:\n%s", out)
	}
}

// TestTimelineOffExactlyAtWindowEnd: an off event landing exactly on
// `to` is in-window (the chart's interval is inclusive) and paints all
// the way to the right edge.
func TestTimelineOffExactlyAtWindowEnd(t *testing.T) {
	to := simclock.Time(100 * simclock.Second)
	events := []Event{
		{At: to, Kind: EventComponentOff, Component: hw.WiFi},
	}
	out := Timeline(events, 0, to, 10)
	var row string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "Wi-Fi") {
			row = l
		}
	}
	if strings.Count(row, "#") != 10 {
		t.Fatalf("off at window end: row = %q, want fully painted", row)
	}
}

func TestCSVTaskRows(t *testing.T) {
	c := simclock.New()
	l := NewLoggerSized(c, 0)
	l.Task("sync", hw.MakeSet(hw.WiFi), true)
	c.Run(simclock.Time(2 * simclock.Second))
	l.Task("sync", hw.MakeSet(hw.WiFi), false)
	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "task-start") || !strings.Contains(out, "task-end") ||
		!strings.Contains(out, "sync") {
		t.Fatalf("csv = %q", out)
	}
}

func TestTaskEventsJSONRoundTrip(t *testing.T) {
	c := simclock.New()
	l := NewLoggerSized(c, 0)
	l.Task("app", hw.MakeSet(hw.WPS), true)
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Tag != "app" || events[0].Set != hw.MakeSet(hw.WPS) ||
		events[0].Kind != EventTaskStart {
		t.Fatalf("round trip = %+v", events)
	}
}
