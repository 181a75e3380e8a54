/**
 * @file
 * The analytic/fitted proxy cost model: per-family linear coefficients
 * over the feature basis (features.h), calibrated offline against the
 * exact static scheduler (cost_model.h) on the kernel registry.
 *
 * Prediction is one dot product, which is what lets the autotuner
 * (tuner.h) screen thousands of configurations per second. The
 * coefficients ship as a versioned JSON artifact
 * (tools/predict_coeffs.json, schema "vespera-predict-coeffs/v1") and
 * as a byte-identical builtin copy compiled into the library so
 * binaries predict correctly from any working directory; a test pins
 * the two together. Accuracy contract: within ±15% of scheduleStatic
 * on held-out shapes of every registry kernel (the static model runs
 * the cycle simulator's issue schedule), enforced by
 * tests/analysis/test_predict_proxy.cc and CI's predict-accuracy job.
 */

#ifndef VESPERA_ANALYSIS_PREDICT_PROXY_H
#define VESPERA_ANALYSIS_PREDICT_PROXY_H

#include <map>
#include <string>
#include <vector>

#include "analysis/predict/features.h"
#include "common/json.h"

namespace vespera::analysis {

/// Coefficient-artifact schema tag.
inline constexpr const char *kProxyCoeffsSchema =
    "vespera-predict-coeffs/v1";

/** Per-family linear model: predicted cycles = w . basis(features). */
class ProxyModel
{
  public:
    /** Cycles for `f`, using the family matching f.kernel exactly, or
     *  the pooled "default" weights. Clamped to >= 1. */
    double predict(const FeatureVector &f) const;

    /** predict() on a raw basis vector (the screening fast path). */
    double predictBasis(const std::string &family,
                        const std::vector<double> &basis) const;

    bool hasFamily(const std::string &family) const
    {
        return families_.count(family) != 0;
    }

    /** Family weight vectors, keyed by kernel name ("default" =
     *  pooled fallback). Sizes match FeatureVector::basisNames(). */
    const std::map<std::string, std::vector<double>> &families() const
    {
        return families_;
    }

    void setFamily(const std::string &family,
                   std::vector<double> weights);

    json::Value toJson() const;
    static bool fromJson(const json::Value &doc, ProxyModel &out,
                         std::string *error);

    /** The compiled-in coefficient artifact (coeffs_builtin.cc).
     *  Panics if the embedded JSON fails to parse — that is a build
     *  defect, not an input error. */
    static const ProxyModel &builtin();

  private:
    std::map<std::string, std::vector<double>> families_;
};

/** One calibration observation: features at a traced shape plus the
 *  exact static-scheduler cycles for the same trace. */
struct CalibrationSample
{
    std::string family; ///< Tunable-kernel name.
    std::vector<double> basis;
    double exactCycles = 0;
    /// Relative emphasis in the squared-loss (1 = normal). The
    /// calibrator raises this for base-knob size-sweep samples: the
    /// ±15% contract is evaluated on exactly that curve, while knob
    /// variations only need to rank.
    double weight = 1;
};

/**
 * Ridge-regress per-family weights (plus the pooled "default" family)
 * of exactCycles on the feature basis. Normal equations with column
 * scaling and partial-pivot elimination — deterministic, no external
 * solver. `ridgeLambda` is relative to the scaled Gram diagonal.
 */
ProxyModel fitProxyModel(const std::vector<CalibrationSample> &samples,
                         double ridgeLambda = 1e-3);

} // namespace vespera::analysis

#endif // VESPERA_ANALYSIS_PREDICT_PROXY_H
