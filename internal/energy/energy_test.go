package energy

import (
	"math"
	"testing"
	"testing/quick"

	"dynamollm/internal/simclock"
)

func TestUnitConversions(t *testing.T) {
	if Wh(3600) != 1 {
		t.Errorf("Wh(3600) = %v, want 1", Wh(3600))
	}
	if KWh(3.6e6) != 1 {
		t.Errorf("KWh(3.6e6) = %v, want 1", KWh(3.6e6))
	}
}

func TestMeterIntegration(t *testing.T) {
	m := NewMeter(0)
	m.SetPower(0, 700)
	m.SetPower(10, 100)
	j := m.Finish(20)
	want := 700*10 + 100*10.0
	if math.Abs(j-want) > 1e-9 {
		t.Errorf("joules = %v, want %v", j, want)
	}
}

func TestMeterNegativeClamped(t *testing.T) {
	m := NewMeter(0)
	m.SetPower(0, -50)
	if j := m.Finish(10); j != 0 {
		t.Errorf("negative power accrued %v J", j)
	}
}

func TestMeterSeries(t *testing.T) {
	m := NewMeter(10)
	m.SetPower(0, 100)
	m.SetPower(5, 300)
	m.SetPower(15, 200)
	m.Finish(20)
	pts := m.Series().Points()
	if len(pts) == 0 {
		t.Fatal("no series points")
	}
}

// Property: energy is additive and non-negative for any power schedule.
func TestMeterAdditivity(t *testing.T) {
	f := func(seed uint64) bool {
		r := simclock.NewRNG(seed)
		m := NewMeter(0)
		tNow := 0.0
		for i := 0; i < 20; i++ {
			m.SetPower(simclock.Time(tNow), r.Float64()*700)
			tNow += r.Float64() * 100
		}
		return m.Finish(simclock.Time(tNow)) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCarbonIntensityDiurnal(t *testing.T) {
	// Midday (solar valley) must be well below evening peak.
	midday := CAISO.Intensity(simclock.Time(13 * 3600))
	evening := CAISO.Intensity(simclock.Time(25 * 3600)) // 1am next day ~ near peak
	if midday >= evening {
		t.Errorf("midday intensity %v should be below evening %v", midday, evening)
	}
	for h := 0; h < 24*7; h++ {
		v := CAISO.Intensity(simclock.Time(h * 3600))
		if v < 0 || v > CAISO.Base*2 {
			t.Errorf("intensity at hour %d = %v out of range", h, v)
		}
	}
}

func TestCarbonWeekendDip(t *testing.T) {
	// Same hour of day, Saturday vs Wednesday (t=0 is Monday 00:00).
	wed := CAISO.Intensity(simclock.Time((2*24 + 9) * 3600))
	sat := CAISO.Intensity(simclock.Time((5*24 + 9) * 3600))
	if sat >= wed {
		t.Errorf("weekend intensity %v should dip below weekday %v", sat, wed)
	}
}

func TestCarbonMeter(t *testing.T) {
	m := NewCarbonMeter(CAISO)
	m.AddEnergy(0, JoulesPerKWh) // 1 kWh at Monday midnight
	want := CAISO.Intensity(0)   // gCO2 for that 1 kWh
	if math.Abs(m.Kg()-want/1000) > 1e-12 {
		t.Errorf("kg = %v, want %v", m.Kg(), want/1000)
	}
	if len(m.HourlySeries().Points()) != 1 {
		t.Error("hourly series missing bucket")
	}
}

func TestCostBill(t *testing.T) {
	c := DefaultCost.Bill(8*3600, JoulesPerKWh*10) // 8 GPU-hours, 10 kWh
	if c.GPUHours != 8 {
		t.Errorf("GPU hours = %v, want 8", c.GPUHours)
	}
	if c.GPUUSD != 8*DefaultCost.GPUHourUSD {
		t.Errorf("GPU cost = %v", c.GPUUSD)
	}
	if math.Abs(c.EnergyUSD-10*DefaultCost.EnergyUSDPerKWh) > 1e-9 {
		t.Errorf("energy cost = %v", c.EnergyUSD)
	}
	if c.Total() != c.GPUUSD+c.EnergyUSD {
		t.Error("total mismatch")
	}
}

// TestGPUCostDominates pins the §V-F observation that energy cost is tiny
// relative to GPU rental at realistic prices.
func TestGPUCostDominates(t *testing.T) {
	// One GPU-hour at 700 W uses 0.7 kWh.
	c := DefaultCost.Bill(3600, 0.7*JoulesPerKWh)
	if c.EnergyUSD > c.GPUUSD/100 {
		t.Errorf("energy cost %v should be <1%% of GPU cost %v", c.EnergyUSD, c.GPUUSD)
	}
}
