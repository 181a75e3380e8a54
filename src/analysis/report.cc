#include "analysis/report.h"

#include <map>

namespace vespera::analysis {

namespace {

/** kernel -> rule -> warning count, aggregated across shapes. */
std::map<std::string, std::map<std::string, int>>
warningCounts(const std::vector<LintEntry> &entries)
{
    std::map<std::string, std::map<std::string, int>> counts;
    for (const LintEntry &e : entries) {
        for (const Diagnostic &d : e.report.diagnostics) {
            if (d.severity == Severity::Warning)
                counts[e.kernel][d.rule]++;
        }
    }
    return counts;
}

} // namespace

json::Value
baselineJson(const std::vector<LintEntry> &entries)
{
    std::map<std::string, json::Value> kernels;
    for (const auto &[kernel, rules] : warningCounts(entries)) {
        std::map<std::string, json::Value> m;
        for (const auto &[rule, count] : rules)
            m[rule] = json::Value::makeNumber(count);
        kernels[kernel] = json::Value::makeObject(std::move(m));
    }
    std::map<std::string, json::Value> root;
    root["schema"] = json::Value::makeString("vespera-lint-baseline/v1");
    root["warnings"] = json::Value::makeObject(std::move(kernels));
    return json::Value::makeObject(std::move(root));
}

BaselineCheck
checkAgainstBaseline(const std::vector<LintEntry> &entries,
                     const json::Value &baseline)
{
    BaselineCheck check;
    const json::Value *allowed = baseline.find("warnings");

    // Errors are never baselined.
    for (const LintEntry &e : entries) {
        for (const Diagnostic &d : e.report.diagnostics) {
            if (d.severity == Severity::Error) {
                check.ok = false;
                check.failures.push_back(
                    "error-severity finding in " + e.kernel + ": [" +
                    d.rule + "] " + d.message);
            }
        }
    }

    // Warning counts may not regress past the baseline.
    for (const auto &[kernel, rules] : warningCounts(entries)) {
        const json::Value *base =
            allowed != nullptr ? allowed->find(kernel) : nullptr;
        for (const auto &[rule, count] : rules) {
            int budget = 0;
            if (base != nullptr) {
                const json::Value *v = base->find(rule);
                if (v != nullptr && v->isNumber())
                    budget = static_cast<int>(v->number());
            }
            if (count > budget) {
                check.ok = false;
                check.failures.push_back(
                    kernel + ": [" + rule + "] " +
                    std::to_string(count) + " warnings exceed the " +
                    std::to_string(budget) + " baselined");
            }
        }
    }
    return check;
}

} // namespace vespera::analysis
