#include <algorithm>
#include <set>
#include <unordered_map>

#include "datagen/dblp.h"
#include "tasks/task.h"

namespace iflex {

namespace {

// Threshold of the DBLP tasks' similar() p-function.
constexpr double kSimilarityThreshold = 0.75;

std::vector<DocId> Docs(const std::vector<PubRecord>& records) {
  std::vector<DocId> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(r.doc);
  return out;
}

}  // namespace

Result<std::unique_ptr<TaskInstance>> MakeDblpTask(const std::string& id,
                                                   size_t scale,
                                                   uint64_t seed) {
  auto task = std::make_unique<TaskInstance>();
  task->id = id;
  task->corpus = std::make_unique<Corpus>();

  DblpSpec spec;
  spec.seed = seed;
  if (id == "T4") {
    spec.n_garcia = scale ? scale : 312;
    spec.n_vldb = spec.n_sigmod = spec.n_icde = 0;
    spec.n_shared_teams = 0;
  } else if (id == "T5") {
    spec.n_garcia = spec.n_sigmod = spec.n_icde = 0;
    spec.n_vldb = scale ? scale : 2136;
    spec.n_shared_teams = 0;
  } else {  // T6
    spec.n_garcia = spec.n_vldb = 0;
    spec.n_sigmod = scale ? scale : 1787;
    spec.n_icde = scale ? scale : 1798;
    spec.n_shared_teams =
        std::max<size_t>(2, std::min(spec.n_sigmod, spec.n_icde) / 6);
  }
  DblpData data = GenerateDblp(task->corpus.get(), spec);
  task->catalog = std::make_unique<Catalog>(task->corpus.get());
  task->catalog->RegisterBuiltinFunctions(kSimilarityThreshold);

  const Corpus& corpus = *task->corpus;

  if (id == "T4") {
    task->description = "Garcia-Molina journal publications";
    IFLEX_RETURN_NOT_OK(
        task->catalog->AddTable("garciaPages", DocTable(Docs(data.garcia))));
    IFLEX_RETURN_NOT_OK(
        task->catalog->DeclareIEPredicate("extractGarciaPub", 1, 2));
    IFLEX_ASSIGN_OR_RETURN(task->initial_program, ParseProgram(R"(
      pubs(x, <title>, <jy>) :- garciaPages(x),
                                extractGarciaPub(x, title, jy).
      t4(title) :- pubs(x, title, jy), jy != null.
      extractGarciaPub(x, title, jy) :- from(x, title), from(x, jy).
    )", *task->catalog));
    task->initial_program.set_query("t4");
    for (const PubRecord& p : data.garcia) {
      if (!p.is_journal) continue;  // records without a journal year yield
                                    // no gold tuple
      task->gold.extractions["extractGarciaPub"].push_back(
          GoldStandard::Extraction{
              p.doc,
              {Value::OfSpan(corpus, p.title_span),
               Value::OfSpan(corpus, p.journal_year_span)}});
      task->gold.query_result.push_back({Value::String(p.title)});
    }
    task->tuples_per_table = data.garcia.size();
    task->n_procedures = 1;
    task->n_attributes = 2;
    task->n_rules = 3;
    task->manual_records = data.garcia.size();
  } else if (id == "T5") {
    task->description = "VLDB short publications of 5 or fewer pages";
    IFLEX_RETURN_NOT_OK(
        task->catalog->AddTable("vldbPages", DocTable(Docs(data.vldb))));
    IFLEX_RETURN_NOT_OK(
        task->catalog->DeclareIEPredicate("extractVLDB", 1, 3));
    IFLEX_ASSIGN_OR_RETURN(task->initial_program, ParseProgram(R"(
      vpubs(x, <title>, <fp>, <lp>) :- vldbPages(x),
                                       extractVLDB(x, title, fp, lp).
      t5(title) :- vpubs(x, title, fp, lp), lp < fp + 5.
      extractVLDB(x, title, fp, lp) :- from(x, title), from(x, fp),
                                       from(x, lp).
    )", *task->catalog));
    task->initial_program.set_query("t5");
    for (const PubRecord& p : data.vldb) {
      task->gold.extractions["extractVLDB"].push_back(GoldStandard::Extraction{
          p.doc,
          {Value::OfSpan(corpus, p.title_span),
           Value::OfSpan(corpus, p.first_page_span),
           Value::OfSpan(corpus, p.last_page_span)}});
      if (p.last_page < p.first_page + 5) {
        task->gold.query_result.push_back({Value::String(p.title)});
      }
    }
    task->tuples_per_table = data.vldb.size();
    task->n_procedures = 1;
    task->n_attributes = 3;
    task->n_rules = 3;
    task->manual_records = data.vldb.size();
  } else {  // T6
    task->description = "SIGMOD/ICDE publications sharing authors";
    IFLEX_RETURN_NOT_OK(
        task->catalog->AddTable("sigmodPages", DocTable(Docs(data.sigmod))));
    IFLEX_RETURN_NOT_OK(
        task->catalog->AddTable("icdePages", DocTable(Docs(data.icde))));
    IFLEX_RETURN_NOT_OK(
        task->catalog->DeclareIEPredicate("extractSIGMOD", 1, 2));
    IFLEX_RETURN_NOT_OK(
        task->catalog->DeclareIEPredicate("extractICDE", 1, 2));
    IFLEX_ASSIGN_OR_RETURN(task->initial_program, ParseProgram(R"(
      sig(x, <title>, <a1>) :- sigmodPages(x),
                               extractSIGMOD(x, title, a1).
      ic(y, <a2>) :- icdePages(y), extractICDE(y, t2, a2).
      t6(title) :- sig(x, title, a1), ic(y, a2), similar(a1, a2).
      extractSIGMOD(x, title, a1) :- from(x, title), from(x, a1).
      extractICDE(y, t2, a2) :- from(y, t2), from(y, a2).
    )", *task->catalog));
    task->initial_program.set_query("t6");
    // The gold keeps a SIGMOD title exactly when the query's
    // similar(a1, a2) holds for some ICDE author string, i.e. their
    // TokenJaccard reaches the threshold. A token index counts each ICDE
    // team's shared tokens, so only teams sharing one are compared; two
    // token-less strings have Jaccard 1.
    std::set<std::string> icde_teams;
    for (const PubRecord& p : data.icde) icde_teams.insert(p.authors);
    std::vector<size_t> team_sizes;
    std::unordered_map<std::string, std::vector<size_t>> teams_with_token;
    for (const std::string& team : icde_teams) {
      std::set<std::string> tokens = JaccardTokens(team);
      for (const std::string& t : tokens) {
        teams_with_token[t].push_back(team_sizes.size());
      }
      team_sizes.push_back(tokens.size());
    }
    const bool icde_tokenless =
        std::find(team_sizes.begin(), team_sizes.end(), 0) != team_sizes.end();
    std::vector<size_t> shared(team_sizes.size(), 0);
    auto similar_to_icde = [&](const std::string& authors) {
      std::set<std::string> tokens = JaccardTokens(authors);
      if (tokens.empty()) return icde_tokenless;
      std::vector<size_t> touched;
      for (const std::string& t : tokens) {
        auto it = teams_with_token.find(t);
        if (it == teams_with_token.end()) continue;
        for (size_t team : it->second) {
          if (shared[team]++ == 0) touched.push_back(team);
        }
      }
      bool similar = false;
      for (size_t team : touched) {
        // TokenJaccard's arithmetic on the counted intersection.
        size_t uni = tokens.size() + team_sizes[team] - shared[team];
        double jaccard =
            static_cast<double>(shared[team]) / static_cast<double>(uni);
        if (jaccard >= kSimilarityThreshold) similar = true;
        shared[team] = 0;
      }
      return similar;
    };
    for (const PubRecord& p : data.sigmod) {
      task->gold.extractions["extractSIGMOD"].push_back(
          GoldStandard::Extraction{
              p.doc,
              {Value::OfSpan(corpus, p.title_span),
               Value::OfSpan(corpus, p.authors_span)}});
      if (similar_to_icde(p.authors)) {
        task->gold.query_result.push_back({Value::String(p.title)});
      }
    }
    for (const PubRecord& p : data.icde) {
      task->gold.extractions["extractICDE"].push_back(GoldStandard::Extraction{
          p.doc,
          {Value::OfSpan(corpus, p.title_span),
           Value::OfSpan(corpus, p.authors_span)}});
    }
    task->tuples_per_table = std::max(data.sigmod.size(), data.icde.size());
    task->n_procedures = 2;
    task->n_attributes = 4;
    task->n_rules = 5;
    task->manual_records = data.sigmod.size();
    task->manual_pairs = data.sigmod.size() * data.icde.size() / 8;
    task->cleanup_minutes = 8;
  }

  task->developer = std::make_unique<SimulatedDeveloper>(
      task->corpus.get(), &task->gold);
  return task;
}

}  // namespace iflex
