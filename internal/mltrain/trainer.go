package mltrain

import (
	"fmt"

	"spottune/internal/earlycurve"
)

// TrainerConfig wires a model to its data, batch size, learning-rate
// schedule, and validation cadence.
type TrainerConfig struct {
	// Batch is the minibatch size (Table II's bs hyper-parameter).
	Batch int
	// Schedule supplies the per-step learning rate.
	Schedule Schedule
	// ValidateEvery records the validation metric every N steps (an
	// "epoch" in curve terms). Must be >= 1.
	ValidateEvery int
	// Seed drives batch shuffling.
	Seed uint64
}

func (c TrainerConfig) withDefaults() TrainerConfig {
	if c.Batch <= 0 {
		c.Batch = 32
	}
	if c.Schedule == nil {
		c.Schedule = ConstLR(0.01)
	}
	if c.ValidateEvery <= 0 {
		c.ValidateEvery = 10
	}
	return c
}

// Trainer drives a Model over a train/validation split, producing the
// validation-metric curve that EarlyCurve consumes.
type Trainer struct {
	Model Model
	Train *Dataset
	Val   *Dataset

	cfg     TrainerConfig
	batcher *Batcher
	step    int
	curve   []earlycurve.MetricPoint
}

// NewTrainer validates the datasets and builds a trainer.
func NewTrainer(m Model, train, val *Dataset, cfg TrainerConfig) (*Trainer, error) {
	if err := train.Validate(); err != nil {
		return nil, fmt.Errorf("mltrain: train set: %w", err)
	}
	if err := val.Validate(); err != nil {
		return nil, fmt.Errorf("mltrain: val set: %w", err)
	}
	cfg = cfg.withDefaults()
	return &Trainer{
		Model:   m,
		Train:   train,
		Val:     val,
		cfg:     cfg,
		batcher: NewBatcher(train.Len(), cfg.Seed),
	}, nil
}

// Curve returns the recorded validation-metric points (shared slice; do not
// mutate).
func (t *Trainer) Curve() []earlycurve.MetricPoint { return t.curve }

// Validate computes the current validation metric.
func (t *Trainer) Validate() float64 { return t.Model.Loss(t.Val) }

// RunSteps advances n optimization steps, recording the validation metric
// every ValidateEvery steps, and returns the newly recorded points.
func (t *Trainer) RunSteps(n int) []earlycurve.MetricPoint {
	start := len(t.curve)
	for i := 0; i < n; i++ {
		idx := t.batcher.Next(t.cfg.Batch)
		lr := t.cfg.Schedule.LR(t.step)
		t.Model.TrainStep(t.Train, idx, lr)
		t.step++
		if t.step%t.cfg.ValidateEvery == 0 {
			t.curve = append(t.curve, earlycurve.MetricPoint{Step: t.step, Value: t.Validate()})
		}
	}
	return t.curve[start:]
}
