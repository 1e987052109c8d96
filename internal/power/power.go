// Package power computes clock-network power from an STA capacitance
// inventory. The clock toggles every cycle (activity 1 by definition), so
// dynamic power is simply C·V²·f over all switched capacitance — wire,
// sink pins, buffer input pins, and buffer internal cap — plus summed
// buffer leakage. This is the metric smart NDR assignment minimizes.
package power

import (
	"fmt"

	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

// Breakdown itemizes clock power, W.
type Breakdown struct {
	Wire     float64 `json:"wire"`     // wire switching
	SinkPins float64 `json:"sink"`     // sink pin switching
	BufPins  float64 `json:"buf_pins"` // buffer input pin switching
	BufInt   float64 `json:"buf_int"`  // buffer internal switching
	Leakage  float64 `json:"leakage"`  // buffer leakage
}

// Total returns the summed clock power, W.
func (b Breakdown) Total() float64 {
	return b.Wire + b.SinkPins + b.BufPins + b.BufInt + b.Leakage
}

// String implements fmt.Stringer in mW.
func (b Breakdown) String() string {
	return fmt.Sprintf("total %.3f mW (wire %.3f, sinks %.3f, buf pins %.3f, buf int %.3f, leak %.3f)",
		b.Total()*1e3, b.Wire*1e3, b.SinkPins*1e3, b.BufPins*1e3, b.BufInt*1e3, b.Leakage*1e3)
}

// Compute derives the power breakdown of an analyzed clock network.
func Compute(res *sta.Result, te *tech.Tech) Breakdown {
	cv2f := te.Vdd * te.Vdd * te.Freq
	return Breakdown{
		Wire:     res.WireCap * cv2f,
		SinkPins: res.SinkCap * cv2f,
		BufPins:  res.BufInCap * cv2f,
		BufInt:   res.BufIntCap * cv2f,
		Leakage:  res.LeakageTot,
	}
}
