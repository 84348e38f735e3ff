package config

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestFlagCheckPasses(t *testing.T) {
	var fc FlagCheck
	fc.PositiveInt("servers", 960)
	fc.NonNegativeInt("rpc-retries", 0)
	fc.PositiveFloat("hours", 0.5)
	fc.NonNegativeFloat("quota", 0)
	fc.FloatInRange("failover-jitter", 0.1, 0, 0.5)
	fc.Fraction("scale", 1)
	fc.PositiveDuration("cap-lease-ttl", 12*time.Second)
	fc.NonNegativeDuration("poll", 0)
	if err := fc.Err(); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
}

func TestFlagCheckCollectsEveryFailure(t *testing.T) {
	var fc FlagCheck
	fc.PositiveInt("servers", 0)
	fc.NonNegativeInt("rpc-retries", -1)
	fc.PositiveFloat("hours", -2)
	fc.NonNegativeFloat("quota", math.NaN())
	fc.FloatInRange("failover-jitter", 0.75, 0, 0.5)
	fc.Fraction("scale", 1.5)
	fc.PositiveDuration("cap-lease-ttl", 0)
	fc.NonNegativeDuration("poll", -time.Second)
	err := fc.Err()
	if err == nil {
		t.Fatal("invalid flags accepted")
	}
	for _, name := range []string{
		"-servers", "-rpc-retries", "-hours", "-quota",
		"-failover-jitter", "-scale", "-cap-lease-ttl", "-poll",
	} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not name %s: %v", name, err)
		}
	}
}

func TestFlagCheckRejectsNaNEverywhere(t *testing.T) {
	var fc FlagCheck
	fc.PositiveFloat("oversubscribe", math.NaN())
	if fc.Err() == nil {
		t.Error("PositiveFloat accepted NaN")
	}
	fc = FlagCheck{}
	fc.FloatInRange("failover-jitter", math.NaN(), 0, 0.5)
	if fc.Err() == nil {
		t.Error("FloatInRange accepted NaN")
	}
	fc = FlagCheck{}
	fc.Fraction("scale", math.NaN())
	if fc.Err() == nil {
		t.Error("Fraction accepted NaN")
	}
}

func TestFlagCheckZeroBoundaries(t *testing.T) {
	var fc FlagCheck
	fc.PositiveDuration("store-interval", 0)
	if fc.Err() == nil {
		t.Error("PositiveDuration accepted 0")
	}
	fc = FlagCheck{}
	fc.Fraction("scale", 0)
	if fc.Err() == nil {
		t.Error("Fraction accepted 0")
	}
	fc = FlagCheck{}
	fc.NonNegativeInt("tick-workers", 0)
	fc.NonNegativeFloat("quota", 0)
	if err := fc.Err(); err != nil {
		t.Errorf("zero rejected by non-negative checks: %v", err)
	}
}
