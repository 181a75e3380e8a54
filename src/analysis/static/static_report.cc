#include "analysis/static/static_report.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace vespera::analysis {

namespace {

json::Value
num(double v)
{
    return json::Value::makeNumber(v);
}

json::Value
str(std::string s)
{
    return json::Value::makeString(std::move(s));
}

json::Value
diagnosticJson(const Diagnostic &d)
{
    std::map<std::string, json::Value> m;
    m["rule"] = str(d.rule);
    m["severity"] = str(severityName(d.severity));
    m["kernel"] = str(d.kernel);
    m["instr"] = num(static_cast<double>(d.instrIndex));
    m["op"] = str(d.opLabel);
    m["message"] = str(d.message);
    m["fix_hint"] = str(d.fixHint);
    m["cost_cycles"] = num(d.costCycles);
    m["wasted_bytes"] = num(static_cast<double>(d.wastedBytes));
    return json::Value::makeObject(std::move(m));
}

json::Value
irJson(const StaticReport &r)
{
    std::map<std::string, json::Value> m;
    m["instructions"] =
        num(static_cast<double>(r.report.instructions));
    m["blocks"] = num(static_cast<double>(r.blockCount));
    m["loops"] = num(static_cast<double>(r.loopCount));
    m["max_loop_depth"] = num(r.maxLoopDepth);
    m["max_live_values"] =
        num(static_cast<double>(r.maxLiveValues));
    m["peak_live_bytes"] =
        num(static_cast<double>(r.peakLiveBytes));
    return json::Value::makeObject(std::move(m));
}

json::Value
costJson(const StaticReport &r)
{
    const StaticSchedule &s = r.schedule;
    std::map<std::string, json::Value> m;
    m["predicted_cycles"] = num(s.cycles);
    m["stall_cycles"] = num(s.stallCycles);
    m["dependency_stall_cycles"] = num(s.dependencyStallCycles);
    m["memory_stall_cycles"] = num(s.memoryStallCycles);
    m["slot_stall_cycles"] = num(s.slotStallCycles);
    m["drain_stall_cycles"] = num(s.drainStallCycles);
    m["critical_path_bound"] = num(s.criticalPathBound);
    m["slot_resource_bound"] = num(s.slotResourceBound);
    m["memory_bound"] = num(s.memoryBound);
    return json::Value::makeObject(std::move(m));
}

int
countSeverity(const std::vector<StaticLintEntry> &entries,
              Severity sev)
{
    int n = 0;
    for (const StaticLintEntry &e : entries) {
        for (const Diagnostic &d : e.report.report.diagnostics) {
            if (d.severity == sev)
                n++;
        }
    }
    return n;
}

} // namespace

json::Value
staticLintReportJson(const std::vector<StaticLintEntry> &entries)
{
    std::map<std::string, json::Value> root;
    root["schema"] = str("vespera-lint-static/v1");
    std::vector<json::Value> kernels;
    kernels.reserve(entries.size());
    for (const StaticLintEntry &e : entries) {
        const Report &r = e.report.report;
        std::map<std::string, json::Value> m;
        m["kernel"] = str(e.kernel);
        m["shape"] = str(e.shape);
        m["ir"] = irJson(e.report);
        m["cost"] = costJson(e.report);
        {
            std::map<std::string, json::Value> rules;
            for (const auto &[rule, summary] : r.rules) {
                std::map<std::string, json::Value> s;
                s["count"] = num(summary.count);
                s["cost_cycles"] = num(summary.costCycles);
                s["wasted_bytes"] =
                    num(static_cast<double>(summary.wastedBytes));
                rules[rule] = json::Value::makeObject(std::move(s));
            }
            m["rules"] = json::Value::makeObject(std::move(rules));
        }
        {
            std::vector<json::Value> diags;
            diags.reserve(r.diagnostics.size());
            for (const Diagnostic &d : r.diagnostics)
                diags.push_back(diagnosticJson(d));
            m["diagnostics"] =
                json::Value::makeArray(std::move(diags));
        }
        kernels.push_back(json::Value::makeObject(std::move(m)));
    }
    root["kernels"] = json::Value::makeArray(std::move(kernels));
    {
        std::map<std::string, json::Value> totals;
        totals["errors"] =
            num(countSeverity(entries, Severity::Error));
        totals["warnings"] =
            num(countSeverity(entries, Severity::Warning));
        totals["infos"] = num(countSeverity(entries, Severity::Info));
        root["totals"] = json::Value::makeObject(std::move(totals));
    }
    return json::Value::makeObject(std::move(root));
}

std::string
staticLintReportText(const std::vector<StaticLintEntry> &entries,
                     bool verbose)
{
    std::ostringstream os;
    for (const StaticLintEntry &e : entries) {
        const Report &r = e.report.report;
        const bool clean = r.diagnostics.empty();
        if (clean && !verbose) {
            os << "  OK  " << e.kernel;
            if (!e.shape.empty())
                os << " [" << e.shape << "]";
            os << "\n";
            continue;
        }
        os << "==== " << e.kernel;
        if (!e.shape.empty())
            os << " [" << e.shape << "]";
        os << " ====\n";
        char line[256];
        // Graph-lint entries carry findings but no kernel trace.
        if (r.instructions > 0) {
            std::snprintf(
                line, sizeof(line),
                "  %llu instrs -> %zu blocks, %zu loops (depth %d); "
                "predicted %.0f cycles (%.0f stalled: dep %.0f, mem "
                "%.0f, slot %.0f, drain %.0f)\n",
                static_cast<unsigned long long>(r.instructions),
                e.report.blockCount, e.report.loopCount,
                e.report.maxLoopDepth, e.report.predictedCycles(),
                r.predictedStallCycles, r.dependencyStallCycles,
                r.memoryStallCycles, r.slotStallCycles,
                r.drainStallCycles);
            os << line;
            std::snprintf(
                line, sizeof(line),
                "  bounds: critical path %.0f, busiest slot %.0f, "
                "memory %.0f; peak live %llu values / %llu B\n",
                e.report.schedule.criticalPathBound,
                e.report.schedule.slotResourceBound,
                e.report.schedule.memoryBound,
                static_cast<unsigned long long>(e.report.maxLiveValues),
                static_cast<unsigned long long>(
                    e.report.peakLiveBytes));
            os << line;
        }
        for (const Diagnostic &d : r.diagnostics) {
            os << "  " << severityName(d.severity) << ": [" << d.rule
               << "]";
            if (d.instrIndex >= 0)
                os << " @" << d.instrIndex;
            if (!d.opLabel.empty())
                os << " (" << d.opLabel << ")";
            os << " " << d.message;
            if (d.costCycles > 0) {
                std::snprintf(line, sizeof(line), " [~%.0f cycles]",
                              d.costCycles);
                os << line;
            }
            if (d.wastedBytes > 0)
                os << " [" << d.wastedBytes << " B wasted]";
            os << "\n";
            if (!d.fixHint.empty())
                os << "        fix: " << d.fixHint << "\n";
        }
        for (const auto &[rule, summary] : r.rules) {
            const int shown = static_cast<int>(std::count_if(
                r.diagnostics.begin(), r.diagnostics.end(),
                [&rule = rule](const Diagnostic &d) {
                    return d.rule == rule;
                }));
            if (summary.count > shown) {
                os << "  ... [" << rule << "] "
                   << summary.count - shown << " more finding"
                   << (summary.count - shown == 1 ? "" : "s")
                   << " suppressed\n";
            }
        }
    }
    char totals[128];
    std::snprintf(totals, sizeof(totals),
                  "%zu traces: %d errors, %d warnings, %d infos\n",
                  entries.size(),
                  countSeverity(entries, Severity::Error),
                  countSeverity(entries, Severity::Warning),
                  countSeverity(entries, Severity::Info));
    os << totals;
    return os.str();
}

std::vector<LintEntry>
toLintEntries(const std::vector<StaticLintEntry> &entries)
{
    std::vector<LintEntry> out;
    out.reserve(entries.size());
    for (const StaticLintEntry &e : entries)
        out.push_back({e.kernel, e.shape, e.report.report});
    return out;
}

} // namespace vespera::analysis
