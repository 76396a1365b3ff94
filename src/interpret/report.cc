#include "interpret/report.h"

#include <algorithm>
#include <sstream>

#include "util/string_util.h"

namespace openapi::interpret {

InterpretationReport BuildReport(const Interpretation& interpretation,
                                 const Vec& x0, size_t c, const Vec& y,
                                 size_t top_k) {
  OPENAPI_CHECK_EQ(interpretation.dc.size(), x0.size());
  OPENAPI_CHECK_LT(c, y.size());
  InterpretationReport report;
  report.predicted_class = c;
  report.predicted_probability = y[c];
  report.queries = interpretation.queries;
  report.iterations = interpretation.iterations;

  std::vector<FeatureContribution> all;
  all.reserve(x0.size());
  double positive_mass = 0.0, total_mass = 0.0;
  for (size_t j = 0; j < x0.size(); ++j) {
    double w = interpretation.dc[j];
    all.push_back(FeatureContribution{j, w, x0[j]});
    total_mass += std::fabs(w);
    if (w > 0) positive_mass += w;
  }
  report.support_mass = total_mass > 0 ? positive_mass / total_mass : 0.0;

  std::sort(all.begin(), all.end(),
            [](const FeatureContribution& a, const FeatureContribution& b) {
              return a.weight > b.weight;
            });
  for (const FeatureContribution& fc : all) {
    if (fc.weight <= 0 || report.supporting.size() >= top_k) break;
    report.supporting.push_back(fc);
  }
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    if (it->weight >= 0 || report.opposing.size() >= top_k) break;
    report.opposing.push_back(*it);
  }
  return report;
}

namespace {

std::string FeatureName(size_t index, size_t width) {
  // StrFormat, not "f" + std::to_string(index): GCC 12 reports a false
  // -Wrestrict inside libstdc++ for a literal + std::string&&.
  if (width == 0) return util::StrFormat("f%zu", index);
  return util::StrFormat("pixel(%zu,%zu)", index / width, index % width);
}

}  // namespace

std::string RenderReport(const InterpretationReport& report, size_t width) {
  std::ostringstream os;
  os << util::StrFormat(
      "prediction: class %zu (p = %.4f), interpreted via %zu API queries, "
      "%zu iteration(s)\n",
      report.predicted_class, report.predicted_probability, report.queries,
      report.iterations);
  os << util::StrFormat("support mass: %.1f%% of total |weight|\n",
                        100.0 * report.support_mass);
  os << "top supporting features:\n";
  for (const FeatureContribution& fc : report.supporting) {
    os << util::StrFormat("  %-14s weight %+.5f (value %.3f)\n",
                          FeatureName(fc.feature, width).c_str(), fc.weight,
                          fc.value);
  }
  if (report.supporting.empty()) os << "  (none)\n";
  os << "top opposing features:\n";
  for (const FeatureContribution& fc : report.opposing) {
    os << util::StrFormat("  %-14s weight %+.5f (value %.3f)\n",
                          FeatureName(fc.feature, width).c_str(), fc.weight,
                          fc.value);
  }
  if (report.opposing.empty()) os << "  (none)\n";
  return os.str();
}

}  // namespace openapi::interpret
