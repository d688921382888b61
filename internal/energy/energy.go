// Package energy provides the accounting substrate for the paper's
// evaluation: energy meters (joules/Wh/kWh), synthetic grid carbon-intensity
// traces (the WattTime/CAISO substitute for Fig. 16), and the GPU-hour and
// electricity cost model of §V-F.
package energy

import (
	"math"

	"dynamollm/internal/metrics"
	"dynamollm/internal/simclock"
)

// Unit conversions.
const (
	JoulesPerWh  = 3600.0
	JoulesPerKWh = 3.6e6
)

// Wh converts joules to watt-hours.
func Wh(joules float64) float64 { return joules / JoulesPerWh }

// KWh converts joules to kilowatt-hours.
func KWh(joules float64) float64 { return joules / JoulesPerKWh }

// Meter integrates a piecewise-constant power signal into energy, and keeps
// a bucketed power series for the percentile/time figures.
type Meter struct {
	avg    metrics.TimeAvg
	series *metrics.Series
	lastW  float64
}

// NewMeter returns a meter bucketing power observations at the given series
// width (seconds); width <= 0 disables the series.
func NewMeter(seriesWidth float64) *Meter {
	m := &Meter{}
	if seriesWidth > 0 {
		m.series = metrics.NewSeries(seriesWidth)
	}
	return m
}

// SetPower records that the measured component draws watts from time t on.
func (m *Meter) SetPower(t simclock.Time, watts float64) {
	if watts < 0 {
		watts = 0
	}
	if m.series != nil && float64(t) > 0 {
		// Close the previous interval into the series.
		m.series.Observe(float64(t), m.lastW, 1)
	}
	m.avg.Set(float64(t), watts)
	m.lastW = watts
}

// Finish closes the signal at t and returns total joules.
func (m *Meter) Finish(t simclock.Time) float64 {
	m.avg.Set(float64(t), m.lastW)
	return m.avg.Area()
}

// Series returns the bucketed power series (nil if disabled).
func (m *Meter) Series() *metrics.Series { return m.series }

// --- Carbon intensity ---------------------------------------------------------

// CarbonTrace maps time to grid carbon intensity in gCO2 per kWh. The
// synthetic trace mimics CAISO's strong diurnal "duck curve": low intensity
// midday (solar), high in the evening ramp, with mild weekday/weekend
// variation — enough structure for the Fig. 16 convolution.
type CarbonTrace struct {
	// Base is the mean intensity in gCO2/kWh.
	Base float64
	// Swing is the peak-to-mean diurnal amplitude, as a fraction of Base.
	Swing float64
	// Phase shifts the minimum within the day, in hours from midnight.
	Phase float64
}

// CAISO is a stylized California grid: mean ~250 gCO2/kWh with deep midday
// solar valleys.
var CAISO = CarbonTrace{Base: 250, Swing: 0.45, Phase: 13}

// Intensity returns gCO2/kWh at virtual time t (t=0 is Monday 00:00).
func (c CarbonTrace) Intensity(t simclock.Time) float64 {
	hours := float64(t) / 3600
	hourOfDay := math.Mod(hours, 24)
	// Minimum at Phase (solar noon), maximum half a day away.
	daily := -math.Cos((hourOfDay - c.Phase) / 24 * 2 * math.Pi)
	// Weekend demand dip slightly lowers intensity.
	day := int(hours/24) % 7
	weekend := 1.0
	if day >= 5 {
		weekend = 0.93
	}
	v := c.Base * weekend * (1 + c.Swing*daily)
	if v < 0 {
		return 0
	}
	return v
}

// CarbonMeter convolves an energy stream with a carbon trace.
type CarbonMeter struct {
	Trace  CarbonTrace
	grams  float64
	series *metrics.Series
}

// NewCarbonMeter returns a meter with an hourly emission series.
func NewCarbonMeter(trace CarbonTrace) *CarbonMeter {
	return &CarbonMeter{Trace: trace, series: metrics.NewSeries(3600)}
}

// AddEnergy attributes joules consumed at time t.
func (m *CarbonMeter) AddEnergy(t simclock.Time, joules float64) {
	g := KWh(joules) * m.Trace.Intensity(t)
	m.grams += g
	m.series.Accumulate(float64(t), g)
}

// Kg returns total emissions in kgCO2.
func (m *CarbonMeter) Kg() float64 { return m.grams / 1000 }

// HourlySeries returns emissions per hour in gCO2.
func (m *CarbonMeter) HourlySeries() *metrics.Series { return m.series }

// --- Cost model ----------------------------------------------------------------

// CostModel prices a deployment the way §V-F does: GPU VM rental dominates;
// electricity is a small additional term.
type CostModel struct {
	// GPUHourUSD is the rental price of ONE GPU for one hour. The paper
	// cites the Azure ND96isr H100 v5 (8 GPUs) at ~$85-100/hour, i.e.
	// ~$12/GPU-hour.
	GPUHourUSD float64
	// EnergyUSDPerKWh is the electricity price (ERCOT real-time, ~$0.03).
	EnergyUSDPerKWh float64
}

// DefaultCost matches the paper's sources: cloudprice.net H100 VM pricing
// and ERCOT real-time energy pricing.
var DefaultCost = CostModel{GPUHourUSD: 12.0, EnergyUSDPerKWh: 0.03}

// Cost is an itemized bill.
type Cost struct {
	GPUHours  float64
	EnergyKWh float64
	GPUUSD    float64
	EnergyUSD float64
}

// Total returns the combined bill.
func (c Cost) Total() float64 { return c.GPUUSD + c.EnergyUSD }

// Bill prices gpuSeconds of GPU occupancy and joules of energy.
func (m CostModel) Bill(gpuSeconds, joules float64) Cost {
	c := Cost{
		GPUHours:  gpuSeconds / 3600,
		EnergyKWh: KWh(joules),
	}
	c.GPUUSD = c.GPUHours * m.GPUHourUSD
	c.EnergyUSD = c.EnergyKWh * m.EnergyUSDPerKWh
	return c
}
