package revpred

import (
	"bytes"
	"testing"

	"spottune/internal/market"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	g := spikyGrid(t, 3)
	m, err := Train(g, 0, g.Len(), tinyCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	it, _ := market.DefaultCatalog().Lookup("r3.xlarge")
	loaded, err := LoadModel(&buf, it)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.PhiPos != m.PhiPos || loaded.PhiNeg != m.PhiNeg {
		t.Fatalf("class priors differ: %v/%v vs %v/%v",
			loaded.PhiPos, loaded.PhiNeg, m.PhiPos, m.PhiNeg)
	}
	for _, i := range []int{HistorySteps, 400, 900} {
		want := m.Predict(g, i, g.Price(i)+0.05)
		got := loaded.Predict(g, i, g.Price(i)+0.05)
		if got != want {
			t.Fatalf("prediction differs after reload at %d: %v vs %v", i, got, want)
		}
	}
}

func TestLoadModelTypeMismatch(t *testing.T) {
	g := spikyGrid(t, 3)
	m, err := Train(g, 0, g.Len(), tinyCfg(6))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other, _ := market.DefaultCatalog().Lookup("r4.large")
	if _, err := LoadModel(&buf, other); err == nil {
		t.Fatal("cross-market load accepted")
	}
}

func TestLoadModelGarbage(t *testing.T) {
	it, _ := market.DefaultCatalog().Lookup("r3.xlarge")
	if _, err := LoadModel(bytes.NewReader([]byte("junk")), it); err == nil {
		t.Fatal("garbage accepted")
	}
}
