# Checks that every committed artifact the docs cite exists and parses:
# each `bench/baselines/<name>.json` path in README.md, DESIGN.md and
# EXPERIMENTS.md, with shell-style `{a,b}` lists expanded, must be a file
# holding exactly one valid JSON document. A doc that cites a baseline
# nobody committed fails here instead of sending readers to a missing file.
#
# Usage: cmake -DREPO=<repo root> [-DDOCS=<doc;...>] [-DPYTHON3=<python>]
#              -P tests/cited_artifacts_check.cmake
#
# DOCS (relative to REPO) defaults to the three docs above. Parsing uses
# Python 3's json.load, which rejects anything after the top-level value;
# CMake's string(JSON) ignores trailing content, so it is only the fallback
# when no interpreter is found (and the script says so).

if(NOT DEFINED REPO)
  message(FATAL_ERROR "pass -DREPO=<repo root>")
endif()
if(NOT DEFINED DOCS)
  set(DOCS README.md DESIGN.md EXPERIMENTS.md)
endif()
if(NOT PYTHON3)
  find_program(PYTHON3 NAMES python3)
endif()
if(NOT PYTHON3)
  message(WARNING "python3 not found: trailing content after a cited "
                  "artifact's JSON document goes unchecked")
endif()

# Expands the first {a,b,...} group of `path` and recurses, appending every
# fully expanded path to the list named by `out`.
function(expand_braces path out)
  string(FIND "${path}" "{" open)
  if(open EQUAL -1)
    set(${out} ${${out}} "${path}" PARENT_SCOPE)
    return()
  endif()
  string(FIND "${path}" "}" close)
  math(EXPR alt_len "${close} - ${open} - 1")
  math(EXPR alt_start "${open} + 1")
  math(EXPR tail_start "${close} + 1")
  string(SUBSTRING "${path}" 0 ${open} head)
  string(SUBSTRING "${path}" ${alt_start} ${alt_len} alts)
  string(SUBSTRING "${path}" ${tail_start} -1 tail)
  string(REPLACE "," ";" alts "${alts}")
  set(acc ${${out}})
  foreach(alt IN LISTS alts)
    expand_braces("${head}${alt}${tail}" acc)
  endforeach()
  set(${out} ${acc} PARENT_SCOPE)
endfunction()

set(cited "")
foreach(doc IN LISTS DOCS)
  file(READ "${REPO}/${doc}" text)
  string(REGEX MATCHALL "bench/baselines/[A-Za-z0-9_.,{}-]+\\.json" refs
         "${text}")
  foreach(ref IN LISTS refs)
    expand_braces("${ref}" cited)
  endforeach()
endforeach()
list(REMOVE_DUPLICATES cited)

set(bad "")
foreach(path IN LISTS cited)
  if(NOT EXISTS "${REPO}/${path}")
    list(APPEND bad "${path}: missing")
    continue()
  endif()
  if(PYTHON3)
    execute_process(
      COMMAND "${PYTHON3}" -c
              "import json, sys; json.load(open(sys.argv[1], encoding='utf-8'))"
              "${REPO}/${path}"
      RESULT_VARIABLE rc
      OUTPUT_QUIET
      ERROR_VARIABLE err)
    if(NOT rc MATCHES "^[0-9]+$")
      list(APPEND bad "${path}: cannot run ${PYTHON3} (${rc})")
    elseif(NOT rc EQUAL 0)
      string(REGEX REPLACE ".*\n([^\n]+)\n?$" "\\1" err "${err}")
      list(APPEND bad "${path}: does not parse (${err})")
    endif()
  else()
    file(READ "${REPO}/${path}" json)
    string(JSON type ERROR_VARIABLE err TYPE "${json}")
    if(NOT err STREQUAL "NOTFOUND")
      list(APPEND bad "${path}: does not parse (${err})")
    endif()
  endif()
endforeach()

list(LENGTH cited n_cited)
if(n_cited EQUAL 0)
  message(FATAL_ERROR "no bench/baselines artifact cited in the docs; "
                      "the pattern no longer matches how they cite paths")
endif()
if(bad)
  string(REPLACE ";" "\n  " bad "${bad}")
  message(FATAL_ERROR "cited artifacts not usable:\n  ${bad}")
endif()
message(STATUS "${n_cited} cited artifacts exist and parse")
